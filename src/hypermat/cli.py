"""Command line front end: evaluate, verify, list.

Every command returns 0 on success, and ``verify`` returns 2 when the
campaign completed with failed trials. A failure prints one stderr line and
exits with the code of the first row of ``_FAILURES`` that matches it:

    ParseError               1  parse error: <location>: <message>
    UnknownIdentity          1  unknown ids: <every unknown id>; valid ids: ...
    ValueError               1  bad arguments: <message>
    OSError                  1  cannot write report: <message>
    DomainViolation          2  domain violation: <message>
    NotConverged             3  did not converge: <message>
    any other HypermatError  3  evaluation failed: <Type>: <message>

Bad arguments are malformed options such as ``--trials abc`` or a missing
input, which the parser rejects before any command runs, out-of-range
options such as ``--tol 0``, ``--trials 0`` or ``--s 0``, an ``--ids`` list
that names no identity, and a ``verify --out`` path whose directory does
not exist, which is checked before any trial runs. A report that still
cannot be written, say because ``--out`` names a directory, is an OSError.
"""

from __future__ import annotations

import argparse
import math
import os
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
from .recursions import DEFAULT_CAMPAIGN_TOL, catalog, run_campaign
from .series import DEFAULT_CONFIG, FunctionKind, SeriesConfig, evaluate

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DOMAIN = 2
_EXIT_NUMERICAL = 3

#: Exit code and stderr prefix of each failure; the first matching row wins.
_FAILURES = (
    (ParseError, _EXIT_USAGE, "parse error: "),
    (UnknownIdentity, _EXIT_USAGE, ""),
    (ValueError, _EXIT_USAGE, "bad arguments: "),
    (OSError, _EXIT_USAGE, "cannot write report: "),
    (DomainViolation, _EXIT_DOMAIN, "domain violation: "),
    (NotConverged, _EXIT_NUMERICAL, "did not converge: "),
    (HypermatError, _EXIT_NUMERICAL, "evaluation failed: {}: "),
)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are bad arguments: one line, exit 1.

    Subparsers are built from the same class, so ``eval`` and ``verify``
    errors take the same form; ``--help`` and ``--version`` still exit 0.
    """

    def error(self, message):
        self.exit(_EXIT_USAGE, f"bad arguments: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypermat",
        description=(
            "Evaluate Gauss/Appell matrix hypergeometric functions and verify "
            "their shift recursion identities."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hypermat {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    # The series options of eval and verify, declared once.
    series_options = _Parser(add_help=False)
    series_options.add_argument(
        "--tol", type=float, default=DEFAULT_CONFIG.tol, help="series tolerance"
    )
    series_options.add_argument(
        "--max-degree", type=int, default=DEFAULT_CONFIG.max_degree, help="truncation degree cap"
    )

    eval_cmd = commands.add_parser(
        "eval", parents=[series_options], help="evaluate a function from a JSON matrix document"
    )
    eval_cmd.add_argument("input", help="path to the evaluation document")
    eval_cmd.add_argument(
        "--kind",
        choices=[kind.value for kind in FunctionKind],
        help="require the document to be for this function",
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
        "verify", parents=[series_options],
        help="run a seeded verification campaign over the catalog",
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
    verify_cmd.add_argument("--campaign-tol", type=float, default=DEFAULT_CAMPAIGN_TOL)
    verify_cmd.add_argument("--out", type=str, default=None, help="report file path")

    commands.add_parser("list", help="print the identity catalog")
    return parser


def _cmd_eval(args) -> int:
    data = load_evaluation_document(args.input, expected_kind=args.kind)
    cfg = SeriesConfig(
        tol=args.tol,
        max_degree=args.max_degree,
        enforce_domain=not args.allow_boundary,
    )
    report = evaluate(data.params, data.point, cfg)
    doc = eval_report_to_document(report, data, echo_input=args.echo)
    sys.stdout.write(dump_document(doc))
    return _EXIT_OK


def _cmd_verify(args) -> int:
    ids = None
    if args.ids is not None:
        ids = [part.strip() for part in args.ids.split(",") if part.strip()]
        if not ids:
            raise ValueError(f"--ids names no identity: {args.ids!r}")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out directory does not exist: {os.path.dirname(args.out)!r}")
    reports = run_campaign(
        ids=ids,
        trials=args.trials,
        orders=tuple(args.orders),
        s_values=tuple(args.s_values),
        seed=args.seed,
        cfg=SeriesConfig(tol=args.tol, max_degree=args.max_degree),
        campaign_tol=args.campaign_tol,
    )
    config_echo = {
        "ids": sorted(set(ids)) if ids is not None else "all",
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
    # A residual that is not finite (NaN included) counts as the worst one;
    # with no residual at all, as when every row raised, there is no worst.
    residuals = [r.residual for r in reports if r.error is None]
    worst = max((x if math.isfinite(x) else math.inf for x in residuals), default=None)
    print(
        f"{summary['total']} trials, {summary['passed']} passed, {summary['failed']} failed, "
        f"worst residual {'n/a' if worst is None else format(worst, '.3e')}",
        file=sys.stderr,
    )
    if summary["failed"]:
        for row in doc["results"]:
            if not row["passed"]:
                residual = row["residual"]
                cause = row["error"] or (
                    "residual not finite" if residual is None else f"residual {residual:.3e}"
                )
                print(f"FAIL {row['id']} (s={row['s']}, r={row['order']}): {cause}", file=sys.stderr)
        return _EXIT_DOMAIN
    return _EXIT_OK


def _cmd_list(args) -> int:
    rows = [("id", "function", "parameter", "direction", "form", "hypotheses", "reference")]
    rows += [
        (d.id, d.kind.value, d.shifted_parameter, d.direction, d.form, d.hypotheses, d.formula)
        for d in catalog()
    ]
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]) - 1)]
    for row in rows:
        body = "  ".join(cell.ljust(w) for cell, w in zip(row[:-1], widths))
        print(f"{body}  {row[-1]}")
    return _EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"eval": _cmd_eval, "verify": _cmd_verify, "list": _cmd_list}[args.command]
    try:
        return command(args)
    except (HypermatError, ValueError, OSError) as exc:
        code, prefix = next((c, p) for kind, c, p in _FAILURES if isinstance(exc, kind))
        print(prefix.format(type(exc).__name__) + str(exc), file=sys.stderr)
        return code


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
