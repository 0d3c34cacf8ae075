"""Command-line interface.

Subcommands::

    analyze      classify a pencil given as two polynomials or a matrix file
    catalog      print the sixteen catalog rows
    normal-form  emit the block normal form of a symbol with given roots
    random       emit a seeded random pencil with a prescribed symbol
    verify       run the full acceptance suite

Exit codes: 0 success, 1 a failed ``verify`` criterion or standard output
closed or full, 2 input or parse error, 3 not-a-Segre verdict (degenerate
pencils always; other non-catalog symbols only under --strict), 4
internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .catalog import CATALOG_ORDER
from .classify import classify_symbol
from .errors import InternalConsistencyError, ParseError
from .forms import _matrices_doc, parse_quadratic_form, pencil_from_json, pencil_to_json, render_form
from .pencil import MAX_SIZE, QuadricPencil, _entry
from .polynomial import _rational_str
from .reporting import analyze_pencil, outcome_to_dict, render_pretty, surface_report_to_dict
from .symbol import SegreSymbol, build_normal_form, compute_symbol, random_instance

EXIT_OK = 0
EXIT_FAILURE = 1  # a verify criterion failed, or the output could not be written
EXIT_INPUT = 2
EXIT_NOT_SEGRE = 3
EXIT_INCONSISTENT = 4


def _emit(doc: dict, pretty: bool) -> None:
    print(render_pretty(doc) if pretty else json.dumps(doc, indent=2))


def _cmd_analyze(args) -> int:
    if bool(args.poly) == bool(args.file):
        print("analyze needs exactly one of --poly or --file", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.poly:
            pieces = args.poly.split(";")
            if len(pieces) != 2:
                raise ParseError("--poly needs two forms separated by ';'")
            f = parse_quadratic_form(pieces[0])
            g = parse_quadratic_form(pieces[1])
            pencil = QuadricPencil(f.matrix, g.matrix)
        else:
            with open(args.file, encoding="utf-8") as fh:
                pencil = pencil_from_json(fh.read())
    except (ParseError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    outcome = analyze_pencil(pencil)
    _emit(outcome_to_dict(outcome), args.pretty)
    if outcome.is_degenerate:
        return EXIT_NOT_SEGRE
    if args.strict and not outcome.is_segre:
        return EXIT_NOT_SEGRE
    return EXIT_OK


def _cmd_catalog(args) -> int:
    rows = [surface_report_to_dict(classify_symbol(sym)) for sym in CATALOG_ORDER]
    if args.pretty:
        header = f"{'symbol':14s} {'singularities':14s} {'class':5s} {'Q*':3s} {'lines':5s} {'planes':6s} aut"
        print(header)
        print("-" * len(header))
        for sym, doc in zip(CATALOG_ORDER, rows):
            sings = "+".join(doc["singularities"]) or "none"
            print(
                f"{doc['symbol']:14s} {sings:14s} {doc['class_degree']:<5d} "
                f"{doc['q_star_count']:<3d} {doc['lines_total']:<5d} "
                f"{doc['planes_in_dual']:<6d} {doc['aut_e']}"
            )
    else:
        print(json.dumps(rows, indent=2))
    return EXIT_OK


def _parse_symbol(text: str) -> SegreSymbol:
    """A symbol of weight at most 5: the command line writes pencils in
    X0..X4 only, and the work grows without bound with the weight."""
    sym = SegreSymbol.parse(text)
    if sym.weight > MAX_SIZE:
        raise ParseError(f"symbol has weight {sym.weight}; at most {MAX_SIZE} is supported")
    return sym


def _parse_roots(text: str) -> list[int | Fraction]:
    """Comma-separated roots, each read like a JSON matrix entry."""
    try:
        return [_entry(piece.strip()) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise ParseError(f"bad root list {text[:40]!r}: {exc}") from exc


def _cmd_normal_form(args) -> int:
    try:
        sym = _parse_symbol(args.symbol)
        roots = _parse_roots(args.roots)
        pencil = build_normal_form(sym, roots)
    except (ParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc = {
        "symbol": sym.canonical().render(),
        "roots": [_rational_str(r) for r in roots],
        **_matrices_doc(pencil),
        "equations": [render_form(pencil.u), render_form(pencil.v)],
    }
    _emit(doc, args.pretty)
    return EXIT_OK


def _cmd_random(args) -> int:
    try:
        sym = _parse_symbol(args.symbol)
        pencil = random_instance(sym, args.seed)
    except (ParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(
        pencil_to_json(
            pencil,
            extra={"symbol": compute_symbol(pencil).render(), "seed": args.seed},
        )
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .acceptance import run_all  # only verify needs it; keeps CLI start-up lean

    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.number:2d} ({r.name}): {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Standard output is flushed before returning, so that a closed pipe
    (``segre catalog | head -c 10``) or a full device shows here, not at
    interpreter exit: it ends the run with ``EXIT_FAILURE`` and no
    traceback, silently for a closed pipe.
    """
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        if not isinstance(exc, BrokenPipeError):
            print(f"output error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def _discard_stdout() -> None:
    """Point standard output at the null device, so that the output still
    buffered does not fail again when the interpreter flushes it at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


def _run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="segre",
        description="Exact classification of quadric pencils in CP4 and their dual-variety reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a pencil of quadrics")
    p.add_argument("--poly", help="two quadratic forms separated by ';'")
    p.add_argument("--file", help="JSON file with 5x5 rational string matrices U and V")
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    p.add_argument(
        "--strict", action="store_true", help="exit 3 when the surface is not in the catalog"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("catalog", help="print the sixteen catalog rows")
    p.add_argument("--pretty", action="store_true", help="table instead of JSON")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("normal-form", help="block normal form of a symbol")
    p.add_argument("symbol", help="Segre symbol, e.g. '[2111]'")
    p.add_argument("--roots", required=True, help="comma-separated rationals, one per group")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("random", help="seeded random pencil with a prescribed symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse's value for an option given as "--name=--"
        parser.error("'--' is not a valid option value")
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
