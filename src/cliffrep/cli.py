"""Command-line front end.

Commands: rep (print an element's matrix image), inverse, classify, table,
verify, catalog.  Output ordering is deterministic so golden-file tests
stay stable.  Exit codes: 0 success, 1 failing verification, 2 parse error
(with the offending position), invalid argument, or a rep/inverse result
holding a number past the interpreter's int-to-str digit limit (one line on
stderr naming the limit), 3 catalog miss (including an inverse whose recipe
is too wide for the reconstruction certificate).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .algebra import MAX_GENERATORS, BladeWidthError, Signature
from .catalog import (
    CatalogMissError,
    catalog_signatures,
    catalog_text,
    classify,
    corrections_markdown,
    routes_for,
)
from .represent import element_inverse, represent
from .rings import NumberTooLongError, format_matrix
from .text import ParseError, format_multivector, parse_multivector
from .verify import check_suite, emit_records, emit_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CATALOG_MISS = 3


def _parse_sig(text: str) -> Signature:
    try:
        p_str, q_str = text.split(",")
        return Signature(int(p_str), int(q_str))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"signature must look like 'p,q': {exc}")
    except BladeWidthError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _read_expr(expr: str) -> str:
    if expr == "-":
        return sys.stdin.read()
    return expr


def _print_result(render: Callable[[], str]) -> int:
    try:
        text = render()
    except NumberTooLongError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    print(text)
    return EXIT_OK


def _cmd_rep(args) -> int:
    sig = args.sig
    try:
        a = parse_multivector(sig, _read_expr(args.expr))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        image = represent(a, args.route)
    except CatalogMissError as exc:
        print(f"catalog miss: {exc}", file=sys.stderr)
        return EXIT_CATALOG_MISS
    return _print_result(lambda: format_matrix(image.value))


def _cmd_inverse(args) -> int:
    sig = args.sig
    try:
        a = parse_multivector(sig, _read_expr(args.expr))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        inv = element_inverse(a, args.route)
    except CatalogMissError as exc:
        print(f"catalog miss: {exc}", file=sys.stderr)
        return EXIT_CATALOG_MISS
    return _print_result(lambda: "non-invertible" if inv is None else format_multivector(inv))


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
    if args.all:
        pairs = []
        for sig, routes in catalog_signatures():
            for route in routes:
                pairs.append((sig, route))
    else:
        # a signature with no route reaches get_spec through its default
        # route, which raises the catalog's own miss message
        routes = [args.route] if args.route else routes_for(args.sig) or [None]
        pairs = [(args.sig, route) for route in routes]
    reports = []
    for sig, route in pairs:
        try:
            reports.extend(check_suite(sig, route, seed=args.seed, trials=args.trials))
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
    table.add_argument("--max-n", type=int, default=10, dest="max_n", metavar="N",
                       choices=range(MAX_GENERATORS + 1))
    table.set_defaults(fn=_cmd_table)

    ver = sub.add_parser("verify", help="run the symbolic check suite")
    scope = ver.add_mutually_exclusive_group(required=True)
    scope.add_argument("--sig", type=_parse_sig, default=None, metavar="p,q")
    scope.add_argument("--all", action="store_true", help="whole catalog, all routes")
    ver.add_argument("--route", default=None)
    ver.add_argument("--seed", type=int, default=0)
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
