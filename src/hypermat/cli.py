"""Command line front end: evaluate, verify, list.

Exit codes for ``eval``: 0 success, 1 parse error, 2 domain violation,
3 evaluation failure (non-convergence or a singular shift). ``verify``
returns 0 when every trial passed, 1 for unknown ids or bad arguments, and
2 when the campaign completed with failures.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .documents import (
    dump_document,
    eval_report_to_document,
    load_evaluation_document,
    verification_reports_to_document,
    write_document,
)
from .errors import (
    DomainViolation,
    HypermatError,
    NotConverged,
    ParseError,
    UnknownIdentity,
)
from .recursions import catalog, run_campaign
from .series import SeriesConfig, evaluate

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DOMAIN = 2
_EXIT_NUMERICAL = 3


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermat",
        description=(
            "Evaluate Gauss/Appell matrix hypergeometric functions and verify "
            "their shift recursion identities."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hypermat {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    eval_cmd = commands.add_parser(
        "eval", help="evaluate a function from a JSON matrix document"
    )
    eval_cmd.add_argument("input", help="path to the evaluation document")
    eval_cmd.add_argument(
        "--kind",
        choices=["2F1", "F1", "F2", "F3", "F4"],
        help="require the document to be for this function",
    )
    eval_cmd.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    eval_cmd.add_argument(
        "--max-degree", type=int, default=500, help="truncation degree cap"
    )
    eval_cmd.add_argument(
        "--allow-boundary",
        action="store_true",
        help="disable the convergence-region guard",
    )
    eval_cmd.add_argument(
        "--echo",
        action="store_true",
        help="include the canonicalized input document in the output",
    )

    verify_cmd = commands.add_parser(
        "verify", help="run a seeded verification campaign over the catalog"
    )
    verify_cmd.add_argument(
        "--ids",
        type=str,
        default=None,
        help="comma-separated identity ids (default: the whole catalog)",
    )
    verify_cmd.add_argument("--trials", type=int, default=5)
    verify_cmd.add_argument(
        "--orders", type=_int_list, default=[1, 2, 3], metavar="R1,R2,..."
    )
    verify_cmd.add_argument(
        "--s", dest="s_values", type=_int_list, default=[1, 2, 3], metavar="S1,S2,..."
    )
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.add_argument("--campaign-tol", type=float, default=1e-8)
    verify_cmd.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    verify_cmd.add_argument("--max-degree", type=int, default=500)
    verify_cmd.add_argument("--out", type=str, default=None, help="report file path")

    commands.add_parser("list", help="print the identity catalog")
    return parser


def _cmd_eval(args) -> int:
    try:
        data = load_evaluation_document(args.input, expected_kind=args.kind)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        cfg = SeriesConfig(
            tol=args.tol,
            max_degree=args.max_degree,
            enforce_domain=not args.allow_boundary,
        )
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        report = evaluate(data.params, data.point, cfg)
    except DomainViolation as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except NotConverged as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except HypermatError as exc:
        print(f"evaluation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    doc = eval_report_to_document(report, data, echo_input=args.echo)
    sys.stdout.write(dump_document(doc))
    return _EXIT_OK


def _cmd_verify(args) -> int:
    ids = None
    if args.ids is not None:
        # A repeated id is verified once, at its first mention.
        parts = [part.strip() for part in args.ids.split(",")]
        ids = list(dict.fromkeys(part for part in parts if part))
        if not ids:
            print(f"bad arguments: --ids names no identity: {args.ids!r}", file=sys.stderr)
            return _EXIT_USAGE
        known = {d.id for d in catalog()}
        bad = [identity_id for identity_id in ids if identity_id not in known]
        if bad:
            print(
                f"unknown ids: {', '.join(bad)}\nvalid ids:\n  "
                + "\n  ".join(sorted(known)),
                file=sys.stderr,
            )
            return _EXIT_USAGE
    if args.trials < 1:
        print("trials must be positive", file=sys.stderr)
        return _EXIT_USAGE
    try:
        cfg = SeriesConfig(tol=args.tol, max_degree=args.max_degree)
        reports = run_campaign(
            ids=ids,
            trials=args.trials,
            orders=tuple(args.orders),
            s_values=tuple(args.s_values),
            seed=args.seed,
            cfg=cfg,
            campaign_tol=args.campaign_tol,
        )
    except UnknownIdentity as exc:
        print(str(exc), file=sys.stderr)
        return _EXIT_USAGE
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    config_echo = {
        "ids": sorted(ids) if ids is not None else "all",
        "trials": args.trials,
        "orders": list(args.orders),
        "s_values": list(args.s_values),
        "seed": args.seed,
        "campaign_tol": args.campaign_tol,
        "series_tol": args.tol,
        "max_degree": args.max_degree,
    }
    doc = verification_reports_to_document(reports, config_echo, "hypermat", __version__)
    if args.out:
        write_document(doc, args.out)
    else:
        sys.stdout.write(dump_document(doc))
    summary = doc["summary"]
    worst = max((r.residual for r in reports if r.error is None), default=0.0)
    print(
        f"{summary['total']} trials, {summary['passed']} passed, "
        f"{summary['failed']} failed, worst residual {worst:.3e}",
        file=sys.stderr,
    )
    if summary["failed"]:
        for row in doc["results"]:
            if not row["passed"]:
                cause = row["error"] or f"residual {row['residual']:.3e}"
                print(f"FAIL {row['id']} (s={row['s']}, r={row['order']}): {cause}", file=sys.stderr)
        return _EXIT_DOMAIN
    return _EXIT_OK


def _cmd_list(args) -> int:
    rows = [
        (
            d.id,
            d.kind.value,
            d.shifted_parameter,
            d.direction,
            d.form,
            d.hypotheses,
            d.formula,
        )
        for d in catalog()
    ]
    headers = ("id", "function", "parameter", "direction", "form", "hypotheses", "reference")
    widths = [
        max(len(headers[col]), max(len(row[col]) for row in rows))
        for col in range(len(headers) - 1)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers[:-1], widths))
    print(f"{line}  {headers[-1]}")
    for row in rows:
        body = "  ".join(cell.ljust(w) for cell, w in zip(row[:-1], widths))
        print(f"{body}  {row[-1]}")
    return _EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_list(args)


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
