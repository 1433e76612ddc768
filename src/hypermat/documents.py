"""JSON documents exchanged through the command line.

Complex numbers travel as explicit [re, im] pairs so round trips are
bit-exact and no language's complex-literal syntax leaks into the format.
An evaluation input looks like

    {
      "kind": "F1",
      "order": 2,
      "matrices": {
        "A":  [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        ...
      },
      "point": {"x": [0.25, 0.0], "y": [0.1, 0.0]}
    }

Verification reports are emitted with sorted keys and a fixed layout, so one
seed always produces byte-identical bytes.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ParseError
from .linalg import Matrix, is_count
from .recursions import VerificationReport
from .series import EvalPoint, EvalReport, FunctionKind, ParameterSet

_KINDS_BY_TAG = {kind.value: kind for kind in FunctionKind}


@dataclass(frozen=True)
class EvaluationInput:
    """A parsed evaluation document."""

    params: ParameterSet
    point: EvalPoint
    echo: dict[str, Any]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at(location: str, *indices: int) -> str:
    return location + "".join(f"[{k}]" for k in indices)


def _parse_complex(value, location: str, *indices: int) -> complex:
    """Read the [re, im] pair at ``location`` indexed by ``indices``.

    The location text is built only when a check fails.
    """
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(_at(location, *indices), f"expected a [re, im] pair, got {value!r}")
    re, im = value
    if not _is_number(re):
        raise ParseError(_at(location, *indices, 0), "real part must be a number")
    if not _is_number(im):
        raise ParseError(_at(location, *indices, 1), "imaginary part must be a number")
    try:
        z = complex(float(re), float(im))
    except OverflowError:  # an integer literal past the double range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ParseError(_at(location, *indices), "entries must be finite")
    return z


def _parse_matrix(rows, order: int, location: str) -> Matrix:
    if not isinstance(rows, list):
        raise ParseError(location, "expected a list of rows")
    if len(rows) != order:
        raise ParseError(location, f"expected {order} rows, got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == order):
            raise ParseError(f"{location}[{i}]", f"expected {order} entries")
        out.append([_parse_complex(entry, location, i, j) for j, entry in enumerate(row)])
    return np.array(out, dtype=complex)


def parse_evaluation_document(
    payload: dict[str, Any], expected_kind: str | None = None
) -> EvaluationInput:
    """Validate a loaded JSON object into parameters and a point."""
    if not isinstance(payload, dict):
        raise ParseError("$", "document must be a JSON object")
    kind_tag = payload.get("kind")
    if not (isinstance(kind_tag, str) and kind_tag in _KINDS_BY_TAG):
        raise ParseError("kind", f"expected one of {sorted(_KINDS_BY_TAG)}, got {kind_tag!r}")
    if expected_kind is not None and expected_kind != kind_tag:
        raise ParseError(
            "kind", f"document is for {kind_tag}, but {expected_kind} was requested"
        )
    kind = _KINDS_BY_TAG[kind_tag]
    order = payload.get("order")
    if not (is_count(order) and order >= 1):
        raise ParseError("order", f"expected a positive integer, got {order!r}")
    matrices_node = payload.get("matrices")
    if not isinstance(matrices_node, dict):
        raise ParseError("matrices", "expected an object")
    expected_names = set(kind.parameter_names)
    present = set(matrices_node)
    missing = expected_names - present
    extra = present - expected_names
    if missing:
        raise ParseError("matrices", f"missing parameters: {sorted(missing)}")
    if extra:
        raise ParseError("matrices", f"unexpected parameters: {sorted(extra)}")
    matrices = {
        name: _parse_matrix(matrices_node[name], order, f"matrices.{name}")
        for name in kind.parameter_names
    }
    point_node = payload.get("point")
    if not isinstance(point_node, dict):
        raise ParseError("point", "expected an object")
    if "x" not in point_node:
        raise ParseError("point.x", "missing")
    x = _parse_complex(point_node["x"], "point.x")
    y = None
    if kind.is_two_variable:
        if "y" not in point_node:
            raise ParseError("point.y", f"{kind_tag} needs a y variable")
        y = _parse_complex(point_node["y"], "point.y")
    elif "y" in point_node:
        raise ParseError("point.y", "2F1 takes no y variable")
    params = ParameterSet(kind, matrices)
    return EvaluationInput(params=params, point=EvalPoint(x, y), echo=payload)


def load_evaluation_document(path: str, expected_kind: str | None = None) -> EvaluationInput:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # brackets or braces nested past the interpreter's depth
        raise ParseError(path, "invalid JSON: nested too deeply") from exc
    return parse_evaluation_document(payload, expected_kind)


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_to_rows(m: Matrix) -> list[list[list[float]]]:
    return np.stack((m.real, m.imag), axis=-1).tolist()


def evaluation_input_to_document(data: EvaluationInput) -> dict[str, Any]:
    """Canonical re-rendering of a parsed input (the eval echo)."""
    point: dict[str, Any] = {"x": complex_to_pair(data.point.x)}
    if data.point.y is not None:
        point["y"] = complex_to_pair(data.point.y)
    return {
        "kind": data.params.kind.value,
        "order": data.params.order,
        "matrices": {
            name: matrix_to_rows(data.params[name])
            for name in data.params.kind.parameter_names
        },
        "point": point,
    }


def eval_report_to_document(
    report: EvalReport, data: EvaluationInput, echo_input: bool
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kind": data.params.kind.value,
        "order": data.params.order,
        "value": matrix_to_rows(report.value),
        "degrees_used": report.degrees_used,
        "last_increment_norm": report.last_increment_norm,
        "converged": report.converged,
    }
    if echo_input:
        doc["input"] = evaluation_input_to_document(data)
    return doc


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def verification_reports_to_document(
    reports: list[VerificationReport],
    config_echo: dict[str, Any],
    tool_name: str,
    tool_version: str,
) -> dict[str, Any]:
    """Assemble the campaign report; rows sorted by id then seed."""
    rows = []
    for report in sorted(reports, key=lambda r: (r.identity_id, r.seed)):
        rows.append(
            {
                "id": report.identity_id,
                "s": report.s,
                "order": report.order,
                "seed": report.seed,
                "residual": _finite_or_none(report.residual),
                "passed": report.passed,
                "lhs_degrees": (
                    report.lhs_report.degrees_used if report.lhs_report else None
                ),
                "rhs_degrees": report.rhs_degrees,
                "error": report.error,
            }
        )
    passed = sum(1 for r in reports if r.passed)
    return {
        "tool": {"name": tool_name, "version": tool_version},
        "config": config_echo,
        "results": rows,
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": len(reports) - passed,
        },
    }


def dump_document(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_document(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump_document(doc))
