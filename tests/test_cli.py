import json
import math

import numpy as np
import pytest

from hypermat import cli, recursions
from hypermat.cli import main
from hypermat.errors import GenerationFailed
from hypermat.recursions import DEFAULT_CAMPAIGN_TOL, VerificationReport, catalog
from hypermat.series import DEFAULT_CONFIG, FunctionKind


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def f1_document(x=(0.0, 0.0), y=(0.0, 0.0)):
    return {
        "kind": "F1",
        "order": 2,
        "matrices": {
            "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.5, 0.0]]],
            "B": [[[0.8, 0.1], [0.0, 0.0]], [[0.0, 0.0], [1.1, 0.0]]],
            "Bp": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]],
            "C": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.5, 0.0]]],
        },
        "point": {"x": list(x), "y": list(y)},
    }


def gauss_document(x=(0.5, 0.0)):
    return {
        "kind": "2F1",
        "order": 1,
        "matrices": {
            "A": [[[1.0, 0.0]]],
            "B": [[[1.0, 0.0]]],
            "C": [[[2.0, 0.0]]],
        },
        "point": {"x": list(x)},
    }


def test_eval_identity_at_origin(tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", f1_document())
    code = main(["eval", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["converged"] is True
    value = np.array([[complex(*pair) for pair in row] for row in out["value"]])
    assert np.array_equal(value, np.eye(2))


def test_eval_closed_form(tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", gauss_document())
    code = main(["eval", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["value"][0][0][0] - 1.3862943611198906) <= 1e-10


def test_eval_malformed_entry_is_positioned(tmp_path, capsys):
    doc = f1_document()
    doc["matrices"]["A"][0][1] = [1]
    path = write_doc(tmp_path / "doc.json", doc)
    code = main(["eval", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "matrices.A[0][1]" in err


def test_eval_domain_violation_exit_two(tmp_path, capsys):
    doc = {
        "kind": "F2",
        "order": 1,
        "matrices": {
            "A": [[[1.0, 0.0]]],
            "B": [[[1.0, 0.0]]],
            "Bp": [[[1.0, 0.0]]],
            "C": [[[2.0, 0.0]]],
            "Cp": [[[2.0, 0.0]]],
        },
        "point": {"x": [0.6, 0.0], "y": [0.5, 0.0]},
    }
    path = write_doc(tmp_path / "doc.json", doc)
    code = main(["eval", path])
    assert code == 2
    assert "domain" in capsys.readouterr().err


def test_eval_nonconvergence_exit_three(tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", gauss_document(x=(0.95, 0.0)))
    code = main(["eval", path, "--max-degree", "10"])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_eval_singular_shift_exit_three(tmp_path, capsys):
    doc = gauss_document()
    doc["matrices"]["C"] = [[[-2.0, 0.0]]]  # C + 2I is singular
    path = write_doc(tmp_path / "doc.json", doc)
    code = main(["eval", path])
    assert code == 3
    assert "SingularShift" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--tol", "0"],
        ["verify", "--orders", "1,2,0", "--ids", "G-A+1-contig", "--trials", "1"],
        ["verify", "--orders", "0", "--ids", "G-A+1-contig", "--trials", "1"],
        ["eval", "DOC", "--max-degree", "0"],
        ["verify", "--s", "-2", "--ids", "G-A+1-contig", "--trials", "1"],
        ["verify", "--s", "0", "--ids", "G-A+1-contig", "--trials", "1"],
        ["verify", "--campaign-tol", "-1", "--ids", "G-A+1-contig", "--trials", "1"],
        ["verify", "--ids", ",", "--trials", "1"],
        ["verify", "--ids", "G-A+1-contig", "--trials", "0"],
        ["verify", "--campaign-tol", "inf", "--ids", "G-A+1-contig", "--trials", "1"],
    ],
)
def test_out_of_range_arguments_exit_one(args, tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", gauss_document())
    code = main([path if arg == "DOC" else arg for arg in args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [["verify", "--trials", "abc"], ["verify", "--orders", "x"], ["verify", "--orders", " "], ["eval"]],
)
def test_malformed_arguments_are_one_line_and_exit_one(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("bad arguments:")


@pytest.mark.parametrize("args", [["--version"], ["--help"], ["verify", "--help"]])
def test_help_and_version_exit_zero(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_eval_and_verify_share_the_series_options(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--tol TOL series tolerance" in text
    assert "--max-degree MAX_DEGREE truncation degree cap" in text
    path = write_doc(tmp_path / "doc.json", gauss_document())
    with pytest.raises(SystemExit) as exc:
        main([command] + ([path] if command == "eval" else []) + ["--tol", "abc"])
    assert exc.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bad arguments: argument --tol")


def test_verify_past_order_eight(capsys):
    assert main(["verify", "--orders", "9", "--ids", "G-A+s-sum", "--trials", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(row["order"], row["passed"]) for row in report["results"]] == [(9, True)]


def test_eval_kind_mismatch(tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", gauss_document())
    code = main(["eval", path, "--kind", "F4"])
    assert code == 1
    capsys.readouterr()


def test_eval_echo_round_trip(tmp_path, capsys):
    original = f1_document(x=(0.21, -0.03), y=(0.11, 0.07))
    path = write_doc(tmp_path / "doc.json", original)
    code = main(["eval", path, "--echo"])
    assert code == 0
    echoed = json.loads(capsys.readouterr().out)["input"]
    # Echo reparses to bit-identical matrices and point.
    round_tripped = write_doc(tmp_path / "echo.json", echoed)
    code = main(["eval", round_tripped, "--echo"])
    assert code == 0
    second = json.loads(capsys.readouterr().out)["input"]
    assert second == echoed
    assert echoed["matrices"] == original["matrices"]


def test_verify_unknown_id(tmp_path, capsys):
    code = main(["verify", "--ids", "nope", "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "G-A+s-sum" in err  # the valid ids are listed


def test_verify_unknown_ids_on_one_line(capsys):
    code = main(["verify", "--ids", "nope,G-A+1-contig,zzz", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith("unknown ids: nope, zzz; valid ids: ")


@pytest.mark.parametrize(
    "text, prefix",
    [
        (
            b'{"kind": "2F1", "order": 1, "matrices": {"A": [[[1' + b"0" * 400 + b', 0]]],'
            b' "B": [[[1, 0]]], "C": [[[2, 0]]]}, "point": {"x": [0.5, 0]}}',
            "parse error: matrices.A[0][0]: entries must be finite",
        ),
        (
            b'{"kind": "2F1", "order": 1, "matrices": {"A": [[[' + b"9" * 5000 + b', 0]]],'
            b' "B": [[[1, 0]]], "C": [[[2, 0]]]}, "point": {"x": [0.5, 0]}}',
            "parse error: ",
        ),
        (b"\xff\xfe{}", "parse error: "),
    ],
    ids=["integer-past-the-double-range", "integer-past-the-digit-limit", "not-utf-8"],
)
def test_eval_unreadable_document_exit_one(text, prefix, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    code = main(["eval", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith(prefix)


def test_eval_deeply_nested_document_is_one_parse_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code = main(["eval", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"parse error: {path}: invalid JSON: nested too deeply"]


def test_verify_writes_deterministic_reports(tmp_path, capsys):
    args = [
        "verify",
        "--ids",
        "G-A+s-sum,F1-Bp-s-binom",
        "--trials",
        "2",
        "--seed",
        "11",
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["summary"] == {"total": 4, "passed": 4, "failed": 0}
    assert [row["id"] for row in doc["results"]] == sorted(
        row["id"] for row in doc["results"]
    )
    for row in doc["results"]:
        assert row["passed"] is True
        assert row["residual"] <= 1e-8


@pytest.mark.parametrize(
    "target, prefix",
    [
        ("missing/report.json", "bad arguments: --out directory does not exist: "),
        (".", "cannot write report: "),  # --out names a directory
    ],
    ids=["missing-directory", "directory-as-file"],
)
def test_verify_unwritable_out_exit_one(target, prefix, tmp_path, capsys):
    code = main(["verify", "--ids", "G-A+1-contig", "--trials", "1", "--out", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()  # no campaign summary line
    assert line.startswith(prefix)


def test_verify_repeated_id_runs_once(tmp_path, capsys):
    out = tmp_path / "report.json"
    args = ["verify", "--ids", "G-A+s-sum,G-A+s-sum", "--trials", "1", "--seed", "2"]
    assert main(args + ["--out", str(out)]) == 0
    assert "1 trials, 1 passed" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["config"]["ids"] == ["G-A+s-sum"]
    assert [row["id"] for row in doc["results"]] == ["G-A+s-sum"]


def test_verify_stdout_report(capsys):
    code = main(["verify", "--ids", "G-A+1-contig", "--trials", "1", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["summary"]["failed"] == 0
    assert "worst residual" in captured.err


def test_verify_reports_a_residual_that_is_not_finite(monkeypatch, capsys):
    report = VerificationReport(
        identity_id="G-A+s-binom", s=175, seed=0, order=1, residual=math.nan, passed=False
    )
    monkeypatch.setattr(cli, "run_campaign", lambda **kwargs: [report])
    code = main(["verify", "--ids", "G-A+s-binom", "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "1 trials, 0 passed, 1 failed, worst residual inf",
        "FAIL G-A+s-binom (s=175, r=1): residual not finite",
    ]


def test_verify_summary_without_any_residual_reads_not_available(monkeypatch, capsys):
    report = VerificationReport(
        identity_id="G-A+s-sum", s=2, seed=0, order=3, residual=math.inf, passed=False,
        error="NotConverged: series still moving at degree 2",
    )
    monkeypatch.setattr(cli, "run_campaign", lambda **kwargs: [report])
    code = main(["verify", "--ids", "G-A+s-sum", "--trials", "1", "--max-degree", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "1 trials, 0 passed, 1 failed, worst residual n/a",
        "FAIL G-A+s-sum (s=2, r=3): NotConverged: series still moving at degree 2",
    ]


def test_verify_reports_a_family_that_cannot_be_drawn(monkeypatch, capsys):
    def fail(d, order, s_eff, rng):
        raise GenerationFailed("no family")

    monkeypatch.setattr(recursions, "draw_family", fail)
    code = main(["verify", "--ids", "G-A+s-sum", "--trials", "1", "--orders", "2", "--s", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "1 trials, 0 passed, 1 failed, worst residual n/a",
        "FAIL G-A+s-sum (s=3, r=2): GenerationFailed: no family",
    ]


def test_parsed_defaults_are_the_library_defaults():
    parser = cli._build_parser()
    eval_args = parser.parse_args(["eval", "x.json"])
    verify_args = parser.parse_args(["verify"])
    for args in (eval_args, verify_args):
        assert (args.tol, args.max_degree) == (DEFAULT_CONFIG.tol, DEFAULT_CONFIG.max_degree)
    assert verify_args.campaign_tol == DEFAULT_CAMPAIGN_TOL


def test_kind_choices_are_the_function_kinds(tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", gauss_document())
    for kind in FunctionKind:
        assert cli._build_parser().parse_args(["eval", path, "--kind", kind.value]).kind == kind.value
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(["eval", path, "--kind", "F5"])
    assert "invalid choice: 'F5'" in capsys.readouterr().err


def test_list_prints_whole_catalog(capsys):
    code = main(["list"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == len(catalog()) + 1  # header row
    assert "F1-C-s-sum" in out
    assert "hypotheses" in lines[0]


def test_list_is_stable(capsys):
    main(["list"])
    first = capsys.readouterr().out
    main(["list"])
    second = capsys.readouterr().out
    assert first == second
