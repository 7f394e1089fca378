"""Command-line front end.

Commands: rep (print an element's matrix image), inverse, classify, table,
verify, catalog.  Output ordering is deterministic so golden-file tests
stay stable.  Exit codes: 0 success, 1 failing verification, 2 parse error
(with the offending position), invalid argument or output error (a result
past the interpreter's int-to-str digit limit, or stdout closed early; one
line on stderr), 3 catalog miss (including an inverse whose recipe is too
wide for the reconstruction certificate).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from .algebra import MAX_GENERATORS, BladeWidthError, Signature
from .catalog import (
    CatalogMissError,
    catalog_text,
    classify,
    corrections_markdown,
    routes_for,
)
from .represent import element_inverse, represent
from .rings import NumberTooLongError, format_matrix
from .text import ParseError, ascii_digits, format_multivector, parse_multivector
from .verify import emit_records, emit_text, run_catalog_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CATALOG_MISS = 3


def _parse_sig(text: str) -> Signature:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(map(ascii_digits, parts)):
        raise argparse.ArgumentTypeError(f"signature must look like 'p,q' in ASCII digits: {text!r}")
    try:
        return Signature(*map(int, parts))
    except (ValueError, BladeWidthError) as exc:  # ValueError: past int()'s digit limit
        raise argparse.ArgumentTypeError(str(exc))


def _ascii_int(text: str) -> int:
    """An integer in ASCII digits with an optional leading '-', surrounding
    spaces allowed; ``int()`` also takes other scripts' digits and '_'."""
    body = text.strip()
    if not ascii_digits(body.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"not an integer in ASCII digits: {text!r}")
    try:
        return int(body)
    except ValueError as exc:  # past int()'s digit limit
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    value = _ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _read_expr(expr: str) -> str:
    if expr == "-":
        return sys.stdin.read()
    return expr


def _element_command(args, compute: Callable, render: Callable[[object], str]) -> int:
    """Parse the element, compute on its route, print the rendered result."""
    try:
        a = parse_multivector(args.sig, _read_expr(args.expr))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        result = compute(a, args.route)
    except CatalogMissError as exc:
        print(f"catalog miss: {exc}", file=sys.stderr)
        return EXIT_CATALOG_MISS
    try:
        text = render(result)
    except NumberTooLongError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    print(text)
    return EXIT_OK


def _cmd_rep(args) -> int:
    return _element_command(args, represent, lambda image: format_matrix(image.value))


def _cmd_inverse(args) -> int:
    return _element_command(
        args,
        element_inverse,
        lambda inv: "non-invertible" if inv is None else format_multivector(inv),
    )


def _cmd_classify(args) -> int:
    target = classify(args.sig)
    print(f"({args.sig.p},{args.sig.q}) -> {target}")
    return EXIT_OK


def _cmd_table(args) -> int:
    max_n = args.max_n
    for n in range(max_n + 1):
        cells = []
        for p in range(n, -1, -1):
            q = n - p
            target = classify(Signature(p, q))
            mark = "*" if routes_for(Signature(p, q)) else " "
            cells.append(f"({p},{q}) {target}{mark}")
        print(f"n={n}: " + "  ".join(cells))
    print("entries marked * have constructed transforms")
    return EXIT_OK


def _cmd_verify(args) -> int:
    pairs = None  # --all: every listed route of the catalog
    if not args.all:
        # a signature with no route reaches get_spec through its default
        # route, which raises the catalog's own miss message
        routes = [args.route] if args.route else routes_for(args.sig) or [None]
        pairs = [(args.sig, route) for route in routes]
    try:
        reports = run_catalog_suite(pairs, seed=args.seed, trials=args.trials)
    except CatalogMissError as exc:
        print(f"catalog miss: {exc}", file=sys.stderr)
        return EXIT_CATALOG_MISS
    reports.sort(key=lambda r: (r.signature.p, r.signature.q, r.route, r.name))
    out = emit_records(reports) if args.format == "records" else emit_text(reports)
    print(out, end="")
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        print(f"{failed} failing check(s)", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.corrections:
        print(corrections_markdown(), end="")
    else:
        print(catalog_text(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffrep",
        description="exact matrix representations of real Clifford algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("rep", help="print the matrix image of an element")
    rep.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")
    rep.add_argument("--route", default=None, help="recipe route name (default per signature)")
    rep.add_argument("expr", help="multivector expression, or - for stdin")
    rep.set_defaults(fn=_cmd_rep)

    inv = sub.add_parser("inverse", help="invert an element through its image")
    inv.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")
    inv.add_argument("--route", default=None)
    inv.add_argument("expr")
    inv.set_defaults(fn=_cmd_inverse)

    cls = sub.add_parser("classify", help="target ring and size for a signature")
    cls.add_argument("--sig", type=_parse_sig, required=True, metavar="p,q")
    cls.set_defaults(fn=_cmd_classify)

    table = sub.add_parser("table", help="classification grid")
    table.add_argument("--max-n", type=_ascii_int, default=10, dest="max_n", metavar="N",
                       choices=range(MAX_GENERATORS + 1))
    table.set_defaults(fn=_cmd_table)

    ver = sub.add_parser("verify", help="run the symbolic check suite")
    scope = ver.add_mutually_exclusive_group(required=True)
    scope.add_argument("--sig", type=_parse_sig, default=None, metavar="p,q")
    scope.add_argument("--all", action="store_true", help="whole catalog, all routes")
    ver.add_argument("--route", default=None)
    ver.add_argument("--seed", type=_ascii_int, default=0)
    ver.add_argument("--trials", type=_positive_int, default=None, metavar="N")
    ver.add_argument("--format", choices=("text", "records"), default="text")
    ver.set_defaults(fn=_cmd_verify)

    cat = sub.add_parser("catalog", help="list supported signatures")
    cat.add_argument(
        "--corrections", action="store_true", help="print the corrections ledger instead"
    )
    cat.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader left early; the flush at shutdown must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
