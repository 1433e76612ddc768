import json

import numpy as np
import pytest

from hypermat.documents import load_evaluation_document, parse_evaluation_document
from hypermat.errors import ParseError

_DELETE = object()


def gauss_document():
    return {
        "kind": "2F1",
        "order": 1,
        "matrices": {"A": [[[1.0, 0.0]]], "B": [[[1.0, 0.0]]], "C": [[[2.0, 0.0]]]},
        "point": {"x": [0.5, 0.0]},
    }


def f1_document():
    return {
        "kind": "F1",
        "order": 1,
        "matrices": {name: [[[1.0, 0.0]]] for name in ("A", "B", "Bp", "C")},
        "point": {"x": [0.1, 0.0], "y": [0.1, 0.0]},
    }


def edited(make, path, value):
    """``make()`` with the node at ``path`` set to ``value`` (or deleted)."""
    doc = make()
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def gauss(*path, value=_DELETE):
    return edited(gauss_document, list(path), value)


def f1(*path, value=_DELETE):
    return edited(f1_document, list(path), value)


_KINDS = "['2F1', 'F1', 'F2', 'F3', 'F4']"
_PAIR = "expected a [re, im] pair, got"
_ORDER = "expected a positive integer, got"

# One document per check of the parser, with the location and the message
# it must report.
MALFORMED = [
    ([], None, "$", "document must be a JSON object"),
    (gauss("kind"), None, "kind", f"expected one of {_KINDS}, got None"),
    (gauss("kind", value=5), None, "kind", f"expected one of {_KINDS}, got 5"),
    (gauss("kind", value="F5"), None, "kind", f"expected one of {_KINDS}, got 'F5'"),
    (gauss_document(), "F4", "kind", "document is for 2F1, but F4 was requested"),
    (gauss("order"), None, "order", f"{_ORDER} None"),
    (gauss("order", value=True), None, "order", f"{_ORDER} True"),
    (gauss("order", value=0), None, "order", f"{_ORDER} 0"),
    (gauss("order", value=1.0), None, "order", f"{_ORDER} 1.0"),
    (gauss("matrices", value=[1]), None, "matrices", "expected an object"),
    (gauss("matrices", "C"), None, "matrices", "missing parameters: ['C']"),
    (
        gauss("matrices", "Bp", value=[[[1.0, 0.0]]]),
        None,
        "matrices",
        "unexpected parameters: ['Bp']",
    ),
    (gauss("matrices", "A", value="I"), None, "matrices.A", "expected a list of rows"),
    (
        gauss("matrices", "A", value=[[[1.0, 0.0]], [[1.0, 0.0]]]),
        None,
        "matrices.A",
        "expected 1 rows, got 2",
    ),
    (gauss("matrices", "A", value=[[1.0, 0.0]]), None, "matrices.A[0]", "expected 1 entries"),
    (
        gauss("matrices", "A", value=[[[1.0, 0.0], [1.0, 0.0]]]),
        None,
        "matrices.A[0]",
        "expected 1 entries",
    ),
    (gauss("matrices", "B", value=[[[1.0]]]), None, "matrices.B[0][0]", f"{_PAIR} [1.0]"),
    (gauss("matrices", "B", value=[["1+0j"]]), None, "matrices.B[0][0]", f"{_PAIR} '1+0j'"),
    (
        gauss("matrices", "C", value=[[[False, 0.0]]]),
        None,
        "matrices.C[0][0][0]",
        "real part must be a number",
    ),
    (
        gauss("matrices", "C", value=[[[2.0, "0"]]]),
        None,
        "matrices.C[0][0][1]",
        "imaginary part must be a number",
    ),
    (
        gauss("matrices", "C", value=[[[float("nan"), 0.0]]]),
        None,
        "matrices.C[0][0]",
        "entries must be finite",
    ),
    (gauss("point"), None, "point", "expected an object"),
    (gauss("point", "x"), None, "point.x", "missing"),
    (gauss("point", "x", value=0.5), None, "point.x", f"{_PAIR} 0.5"),
    (
        gauss("point", "x", value=[0.5, None]),
        None,
        "point.x[1]",
        "imaginary part must be a number",
    ),
    (gauss("point", "y", value=[0.1, 0.0]), None, "point.y", "2F1 takes no y variable"),
    (f1("point", "y"), None, "point.y", "F1 needs a y variable"),
    (f1("point", "y", value=[0.1, float("-inf")]), None, "point.y", "entries must be finite"),
]


@pytest.mark.parametrize("doc, expected_kind, location, message", MALFORMED)
def test_malformed_document_is_positioned(doc, expected_kind, location, message):
    with pytest.raises(ParseError) as caught:
        parse_evaluation_document(doc, expected_kind)
    assert caught.value.location == location
    assert str(caught.value) == f"{location}: {message}"


_HUGE = 10**400


@pytest.mark.parametrize(
    "path, value, location",
    [
        (("matrices", "A"), [[[_HUGE, 0]]], "matrices.A[0][0]"),
        (("matrices", "C"), [[[2, -_HUGE]]], "matrices.C[0][0]"),
        (("point", "x"), [_HUGE, 0], "point.x"),
    ],
)
def test_integer_past_the_double_range_is_not_finite(path, value, location):
    with pytest.raises(ParseError) as caught:
        parse_evaluation_document(gauss(*path, value=value))
    assert str(caught.value) == f"{location}: entries must be finite"


def test_two_variable_point_past_the_double_range(tmp_path):
    path = tmp_path / "doc.json"
    text = json.dumps(f1_document()).replace('"y": [0.1, 0.0]', f'"y": [0, {_HUGE}]')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=r"^point\.y: entries must be finite$"):
        load_evaluation_document(str(path))


def test_document_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(gauss_document()).encode("utf-16-le"))
    with pytest.raises(ParseError) as caught:
        load_evaluation_document(str(path))
    assert caught.value.location == str(path)
    assert "\n" not in str(caught.value)


def test_json_syntax_error_is_positioned(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"kind": "2F1",,}', encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_evaluation_document(str(path))
    assert str(caught.value).startswith(f"{path}: invalid JSON at line 1, column 16: ")


def test_integer_literal_past_the_digit_limit(tmp_path):
    # Python caps int() of a decimal string at 4300 digits by default, and
    # json then raises a plain ValueError; on an interpreter without the cap
    # the entry is not finite. Either way the document fails to parse.
    path = tmp_path / "doc.json"
    doc = json.dumps(gauss_document()).replace("[[[1.0, 0.0]]]", "[[[" + "9" * 5000 + ", 0]]]", 1)
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ParseError):
        load_evaluation_document(str(path))


def test_document_nested_past_the_recursion_limit(tmp_path):
    # json.load recurses once per bracket, so nesting this deep raises
    # RecursionError inside the decoder; it reads as one parse error.
    path = tmp_path / "doc.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_evaluation_document(str(path))
    assert str(caught.value) == f"{path}: invalid JSON: nested too deeply"


def test_entries_keep_their_signed_zeros():
    doc = gauss_document()
    doc["matrices"]["A"] = [[[-0.0, -0.0]]]
    value = parse_evaluation_document(doc).params["A"][0, 0]
    assert np.signbit(value.real) and np.signbit(value.imag)
