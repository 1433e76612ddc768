import hashlib
import math
import random
import re

import numpy as np
import pytest

from hypermat import cli, linalg, recursions
from hypermat.calculus import random_commuting_family
from hypermat.documents import dump_document, verification_reports_to_document
from hypermat.errors import GenerationFailed, HypothesisViolated, NotConverged, Overflow
from hypermat.errors import SingularMatrix
from hypermat.errors import SingularShift
from hypermat.errors import UnknownIdentity
from hypermat.recursions import (
    FORM_CONTIGUOUS,
    catalog,
    check_hypotheses,
    draw_family,
    draw_point,
    eval_rhs,
    get,
    run_campaign,
    verify_identity,
)
from hypermat.series import EvalPoint, FunctionKind, ParameterSet, SeriesConfig, evaluate

GAUSS_IDS = [
    "G-A+1-contig",
    "G-A-1-contig",
    "G-A+s-sum",
    "G-A-s-sum",
    "G-A+s-binom",
    "G-A-s-binom",
    "G-B+s-sum",
    "G-B-s-sum",
    "G-B+s-binom",
    "G-B-s-binom",
    "G-C-1-contig",
    "G-C-s-sum",
]

EXPECTED_COUNTS = {"2F1": 12, "F1": 16, "F2": 14, "F3": 17, "F4": 10}


def family_params(d, order, seed, s_eff=3):
    fam = draw_family(d, order, s_eff, random.Random(seed))
    return ParameterSet(
        d.kind, {name: fam.realize(name) for name in d.kind.parameter_names}
    )


def scal_params(kind, values):
    return ParameterSet(
        kind, {n: np.array([[v]], dtype=complex) for n, v in values.items()}
    )


def test_catalog_is_complete_and_duplicate_free():
    ids = [d.id for d in catalog()]
    assert len(ids) == len(set(ids)) == 69
    by_kind = {}
    for d in catalog():
        by_kind[d.kind.value] = by_kind.get(d.kind.value, 0) + 1
    assert by_kind == EXPECTED_COUNTS


def test_catalog_gauss_entries_enumerated():
    have = [d.id for d in catalog() if d.kind is FunctionKind.GAUSS_2F1]
    assert have == GAUSS_IDS


def test_catalog_spot_ids_present():
    for identity_id in ("G-A+s-sum", "F4-Cp-s-sum", "F1-C-s-sum", "F3-Bp-s-binom"):
        d = get(identity_id)
        assert d.id == identity_id


def test_catalog_descriptors_are_wellformed():
    for d in catalog():
        names = set(d.kind.parameter_names)
        assert d.shifted_parameter in names
        for left, right in d.commuting_pairs:
            assert {left, right} <= names
        if d.swap_of is not None:
            base = get(d.swap_of)
            assert base.kind is d.kind
            assert base.swap_of is None


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        get("nope")


def test_check_hypotheses_on_family():
    for identity_id in ("G-A+s-sum", "F2-C-s-sum", "F3-B+s-binom", "F4-A-s-multinom"):
        d = get(identity_id)
        params = family_params(d, 2, seed=5)
        assert check_hypotheses(d, params, 3)


def test_check_hypotheses_rejects_singular_decrement_shift():
    d = get("G-A-s-sum")
    params = ParameterSet(
        d.kind,
        {
            "A": np.diag([2.0, 1.3]).astype(complex),
            "B": np.diag([1.0, 1.5]).astype(complex),
            "C": np.diag([2.2, 2.7]).astype(complex),
        },
    )
    assert not check_hypotheses(d, params, 3)  # A - 2I is singular
    assert check_hypotheses(d, params, 1)


def test_check_hypotheses_rejects_noncommuting_pair():
    d = get("G-A+s-sum")
    params = ParameterSet(
        d.kind,
        {
            "A": np.diag([1.3, 1.7]).astype(complex),
            "B": np.diag([1.0, 2.0]).astype(complex),
            "C": np.array([[2.0, 2.0], [0.0, 2.5]], dtype=complex),
        },
    )
    assert linalg.commutator_norm(params["B"], params["C"]) >= 1.0
    assert not check_hypotheses(d, params, 2)


@pytest.mark.parametrize("d", catalog(), ids=lambda d: d.id)
def test_rhs_at_shift_zero_is_base_value(d):
    params = family_params(d, 2, seed=31)
    point = draw_point(d.kind, random.Random(7))
    base = evaluate(params, point).value
    rhs = eval_rhs(d, params, 0, point)
    assert np.linalg.norm(rhs - base) <= 1e-13 * (1.0 + np.linalg.norm(base))


def test_rhs_gauss_increment_scalar_closed_form():
    # With A = B = 1, C = 2, the shifted function is the geometric series.
    d = get("G-A+s-sum")
    params = scal_params(d.kind, {"A": 1.0, "B": 1.0, "C": 2.0})
    rhs = eval_rhs(d, params, 1, EvalPoint(0.3))
    assert abs(rhs[0, 0] - 1.0 / 0.7) <= 1e-10


def test_multinomial_and_telescoping_forms_agree_at_s_one():
    sum_form = get("F1-A+s-sum")
    multinom_form = get("F1-A+s-multinom")
    params = family_params(sum_form, 2, seed=8)
    point = draw_point(sum_form.kind, random.Random(9))
    lhs = eval_rhs(sum_form, params, 1, point)
    rhs = eval_rhs(multinom_form, params, 1, point)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(lhs))


def test_cross_form_consistency_spot():
    pairs = [
        ("G-A+s-sum", "G-A+s-binom"),
        ("G-A-s-sum", "G-A-s-binom"),
        ("F2-Bp+s-sum", "F2-Bp+s-binom"),
        ("F4-A-s-sum", "F4-A-s-multinom"),
    ]
    for sum_id, closed_id in pairs:
        d_sum, d_closed = get(sum_id), get(closed_id)
        params = family_params(d_sum, 2, seed=77)
        point = draw_point(d_sum.kind, random.Random(13))
        a = eval_rhs(d_sum, params, 2, point)
        b = eval_rhs(d_closed, params, 2, point)
        assert np.linalg.norm(a - b) <= 1e-9 * (1.0 + np.linalg.norm(a)), sum_id


def test_verify_at_shift_zero_is_exact():
    for identity_id in ("G-A+s-sum", "F1-A+s-multinom", "F3-C-s-sum"):
        d = get(identity_id)
        params = family_params(d, 2, seed=3)
        point = draw_point(d.kind, random.Random(5))
        report = verify_identity(d, params, 0, point)
        assert report.error is None
        assert report.residual <= 1e-14


def test_verify_gauss_c_shift_r2():
    d = get("G-C-s-sum")
    params = family_params(d, 2, seed=19, s_eff=2)
    report = verify_identity(d, params, 2, EvalPoint(0.25))
    assert report.passed
    assert report.residual <= 1e-8


def test_verify_records_hypothesis_violation():
    d = get("F4-A-s-sum")
    fam = random_commuting_family(2, d.kind.parameter_names, seed=2)
    matrices = {name: fam.realize(name) for name in d.kind.parameter_names}
    # Force an eigenvalue of A onto the integer lattice crossed by A - kI.
    matrices["A"] = fam.transform @ np.diag([2.0, 1.4]) @ fam.transform_inverse
    params = ParameterSet(d.kind, matrices)
    report = verify_identity(d, params, 3, draw_point(d.kind, random.Random(1)))
    assert not report.passed
    assert report.error is not None
    assert "HypothesisViolated" in report.error


def test_swap_realization_is_pure_argument_plumbing():
    swapped = get("G-B+s-sum")
    base = get("G-A+s-sum")
    params = family_params(swapped, 2, seed=23)
    point = draw_point(swapped.kind, random.Random(3))
    via_swap = eval_rhs(swapped, params, 2, point)
    transposed = params.renamed(dict(swapped.swap_map))
    direct = eval_rhs(base, transposed, 2, point)
    assert np.linalg.norm(via_swap - direct) <= 1e-12
    assert np.array_equal(via_swap, direct)


def test_swap_realization_f3():
    swapped = get("F3-Bp-s-binom")
    base = get("F3-Ap-s-binom")
    params = family_params(swapped, 2, seed=29)
    point = draw_point(swapped.kind, random.Random(11))
    via_swap = eval_rhs(swapped, params, 2, point)
    direct = eval_rhs(base, params.renamed(dict(swapped.swap_map)), 2, point)
    assert np.array_equal(via_swap, direct)


def test_hypothesis_tripwire_noncommuting_input_breaks_identity():
    # The increment recursion leans on BC = CB; a visibly non-commuting C
    # must push the residual far above campaign tolerance.
    d = get("G-A+s-sum")
    params = ParameterSet(
        d.kind,
        {
            "A": np.diag([1.3, 1.7]).astype(complex),
            "B": np.diag([1.0, 2.0]).astype(complex),
            "C": np.array([[2.0, 2.0], [0.0, 2.5]], dtype=complex),
        },
    )
    assert linalg.commutator_norm(params["B"], params["C"]) >= 1.0
    assert not check_hypotheses(d, params, 2)
    report = verify_identity(
        d, params, 2, EvalPoint(0.25), enforce_hypotheses=False
    )
    assert report.error is None
    assert report.residual > 1e-4


def test_increment_then_decrement_returns_original():
    d_up = get("G-A+s-sum")
    d_down = get("G-A-s-sum")
    params = family_params(d_down, 2, seed=41, s_eff=2)
    point = EvalPoint(0.2 + 0.1j)
    up = eval_rhs(d_up, params, 2, point)
    back = eval_rhs(d_down, params.moved({"A": 2}), 2, point)
    original = evaluate(params, point).value
    assert np.linalg.norm(up - evaluate(params.moved({"A": 2}), point).value) <= 1e-8
    assert np.linalg.norm(back - original) <= 1e-8 * (1.0 + np.linalg.norm(original))


def test_campaign_empty_ids():
    assert run_campaign(ids=[], trials=3, seed=1) == []


def test_campaign_deterministic_under_seed():
    kwargs = dict(
        ids=["G-A+s-sum", "F1-C-s-sum", "F4-B-s-multinom"],
        trials=2,
        orders=(1, 2),
        s_values=(1, 2),
        seed=33,
    )
    first = run_campaign(**kwargs)
    second = run_campaign(**kwargs)
    assert len(first) == len(second) == 6
    for a, b in zip(first, second):
        assert (a.identity_id, a.s, a.seed, a.order) == (
            b.identity_id,
            b.s,
            b.seed,
            b.order,
        )
        assert a.residual == b.residual
        assert a.passed == b.passed


def test_campaign_verifies_a_repeated_id_once():
    kwargs = dict(trials=2, orders=(1, 2), s_values=(1, 2), seed=8)
    alone = run_campaign(ids=["G-A+s-sum", "F1-C-s-sum"], **kwargs)
    repeated = run_campaign(ids=["G-A+s-sum", "F1-C-s-sum", "G-A+s-sum"], **kwargs)
    assert [r.identity_id for r in repeated] == ["G-A+s-sum"] * 2 + ["F1-C-s-sum"] * 2
    assert [(r.seed, r.residual) for r in repeated] == [(r.seed, r.residual) for r in alone]


def test_campaign_rejects_an_order_below_one_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(recursions, "verify_identity", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="orders must be positive"):
        run_campaign(trials=2, orders=(1, 2, 0))
    assert calls == []


def test_campaign_rejects_an_empty_pool_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(recursions, "verify_identity", lambda *args, **kw: calls.append(args))
    for pools in ({"orders": ()}, {"s_values": ()}):
        with pytest.raises(ValueError, match="must be non-empty"):
            run_campaign(trials=2, **pools)
    assert calls == []


def test_campaign_rejects_an_infinite_campaign_tol_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(recursions, "verify_identity", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="campaign_tol must be positive and finite"):
        run_campaign(trials=2, campaign_tol=math.inf)
    assert calls == []


def test_binomial_rows_past_the_double_range_of_the_factorials():
    # (B)_175 and 175! overflow double precision; the scaled runs do not.
    reports = run_campaign(
        ids=["G-A-s-binom", "F1-B+s-binom"], trials=1, orders=(1,), s_values=(175,)
    )
    assert [(r.s, r.error) for r in reports] == [(175, None)] * 2
    assert max(r.residual for r in reports) <= 1e-12


def reference_scalar(term, s, env, point):
    """sign * C(s,k) or M(s,k1,k2) * prod j! over (P)_j / prod j! over (P)_j^-1
    * (+-x)^a (+-y)^b, at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    w, at = term.weight, lambda text: recursions._at(text, env)
    with mpmath.workdps(30):
        ks = [env[v] for v in w.coefficient]
        value = mpmath.mpf(w.sign)
        if len(ks) == 1:
            value *= mpmath.binomial(s, ks[0])
        elif ks:
            value *= mpmath.factorial(s) / (
                mpmath.factorial(ks[0]) * mpmath.factorial(ks[1]) * mpmath.factorial(s - sum(ks))
            )
        for f in term.factors:
            if getattr(f, "op", None) == "poch":
                value *= mpmath.factorial(at(f.index))
            elif getattr(f, "op", None) == "poch_inv":
                value /= mpmath.factorial(at(f.index))
        for variable, power in ((point.x, w.x), (point.y, w.y)):
            if power is not None:
                value *= mpmath.mpc(-variable if w.negated else variable) ** at(power)
        return complex(value)


@pytest.mark.parametrize("row", recursions._ROWS.values(), ids=lambda row: row.id)
def test_term_scalars_match_an_exact_reference(row):
    s = 3
    point = draw_point(row.kind, random.Random(row.id))
    envs = recursions._INDEX_SETS[row.index](s)
    plan = [(t, env) for t in row.terms for env in (envs if t.indexed else [{}])]
    for term, env in plan:
        expected = reference_scalar(term, s, env, point)
        value = recursions._scalar(term, s, env, point)
        assert abs(value - expected) <= 1e-15 * abs(expected), (term, env)


def test_a_term_scalar_past_the_double_range_is_overflow():
    (term,) = recursions._ROWS["G-A-s-binom"].terms
    point = EvalPoint(0.1 + 0.05j)
    expected = reference_scalar(term, 1100, {"k": 100}, point)
    value = recursions._scalar(term, 1100, {"k": 100}, point)
    # x^100 by repeated squaring carries an error of up to about 100 roundings.
    assert abs(value - expected) <= 3e-14 * abs(expected)
    # C(1100, 550) is about 1e329.
    with pytest.raises(Overflow, match="term weight past the double range at s = 1100"):
        recursions._scalar(term, 1100, {"k": 550}, point)


def test_a_campaign_row_with_a_weight_past_the_double_range_fails_with_overflow():
    (report,) = run_campaign(ids=["G-A-s-binom"], trials=1, orders=(1,), s_values=(1100,))
    assert not report.passed
    assert report.error.startswith("Overflow: ")


def test_a_family_that_cannot_be_drawn_fails_its_row(monkeypatch):
    def fail(d, order, s_eff, rng):
        raise GenerationFailed(f"no family for {d.id}")

    monkeypatch.setattr(recursions, "draw_family", fail)
    rows = run_campaign(ids=["G-A+s-sum", "G-A+1-contig"], trials=1, orders=(2,), s_values=(3,))
    # A contiguous row applies the shift count 1 whatever s was drawn.
    drawn = [(r.identity_id, r.order, r.s) for r in rows]
    assert drawn == [("G-A+s-sum", 2, 3), ("G-A+1-contig", 2, 1)]
    for row in rows:
        assert (row.residual, row.passed, row.lhs_report) == (math.inf, False, None)
        assert row.error == f"GenerationFailed: no family for {row.identity_id}"
    doc = verification_reports_to_document(rows, {}, "hypermat", "test")
    assert [(r["residual"], r["lhs_degrees"]) for r in doc["results"]] == [(None, None)] * 2


def test_campaign_unknown_id():
    with pytest.raises(UnknownIdentity):
        run_campaign(ids=["nope"], trials=1)


def test_campaign_subset_passes():
    reports = run_campaign(
        ids=["G-C-s-sum", "F2-Cp-s-sum", "F3-B+s-sum"],
        trials=3,
        orders=(1, 2),
        s_values=(1, 2, 3),
        seed=4,
    )
    assert len(reports) == 9
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) <= 1e-8


def test_the_benchmarks_near_gate_campaign_trial_passes():
    # The campaign workload's trial at seed 0, pass index 12, order 3, s = 3
    # (pass seed campaign_seed(0, 12, 3, 3)): non-normal, ill-conditioned
    # parameters put its residual within a factor 1.2 of the gate, so a change
    # of rounding at order 3 can fail it. A trial seed depends only on the
    # pass seed and the id, so this one call draws the same trial.
    (report,) = run_campaign(
        ids=["F2-C-s-sum"], trials=1, orders=(3,), s_values=(3,), seed=1499463640
    )
    assert (report.order, report.s, report.seed) == (3, 3, 3980235082629649220)
    assert report.passed
    assert report.residual <= recursions.DEFAULT_CAMPAIGN_TOL


def test_the_near_gate_campaign_trial_is_far_below_the_gate():
    # Drawn in Schur form, the near-gate trial's family has a triangular
    # basis, which removes the rounding of the dense non-normal one.
    (report,) = run_campaign(
        ids=["F2-C-s-sum"], trials=1, orders=(3,), s_values=(3,), seed=1499463640
    )
    assert report.residual <= 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 5])
@pytest.mark.parametrize("identity_id", ["G-A+s-sum", "F2-C-s-sum", "F3-Ap-s-binom"])
def test_campaign_families_are_drawn_in_schur_form(identity_id, order):
    d = get(identity_id)
    names = d.kind.parameter_names
    for seed in range(4):
        family = draw_family(d, order, 3, random.Random(seed))
        # Replay the draws to the accepted dense family, known by its spectra.
        rng = random.Random(seed)
        dense = random_commuting_family(order, names, rng.randrange(2**31))
        while dense.spectra != family.spectra:
            dense = random_commuting_family(order, names, rng.randrange(2**31))
        q = dense.transform @ np.linalg.inv(family.transform)  # P = QR
        assert np.linalg.cond(family.transform) <= 1e3
        members = {name: family.realize(name) for name in names}
        for name, member in members.items():
            assert not np.tril(member, -1).any()
            spectrum = np.array(family.spectra[name])
            assert np.all(abs(np.diag(member) - spectrum) <= 1e-15 * abs(spectrum))
            conjugated = q.conj().T @ dense.realize(name) @ q
            error = linalg.frobenius_norm(member - conjugated)
            assert error <= 1e-12 * linalg.frobenius_norm(member)
        norms = {name: linalg.frobenius_norm(member) for name, member in members.items()}
        for a in names:
            for b in names:
                defect = linalg.commutator_norm(members[a], members[b])
                assert defect <= recursions.COMMUTATION_RTOL * max(1.0, norms[a] * norms[b])


def test_contiguous_entries_pin_shift_to_one():
    d = get("F1-A+1-contig")
    assert d.effective_shift(3) == 1
    params = family_params(d, 2, seed=51)
    point = draw_point(d.kind, random.Random(2))
    report = verify_identity(d, params, 3, point)
    assert report.s == 1
    assert report.passed


def test_negative_shift_is_rejected_not_blamed_on_the_identity():
    d = get("G-A+s-sum")
    params = family_params(d, 2, seed=3)
    point = draw_point(d.kind, random.Random(5))
    with pytest.raises(ValueError):
        verify_identity(d, params, -2, point)
    with pytest.raises(ValueError):
        eval_rhs(d, params, -2, point)


@pytest.mark.parametrize("s", [1.5, 2.0, True, "2"])
def test_shift_count_that_is_not_an_integer_is_rejected(s):
    d = get("G-A+s-sum")
    params = family_params(d, 2, seed=3)
    point = draw_point(d.kind, random.Random(5))
    for call in (
        lambda: verify_identity(d, params, s, point),
        lambda: eval_rhs(d, params, s, point),
        lambda: check_hypotheses(d, params, s),
    ):
        with pytest.raises(ValueError, match="shift count must be an integer"):
            call()
    assert d.effective_shift(np.int64(2)) == 2


@pytest.mark.parametrize(
    "bad",
    [{"trials": 1.5}, {"trials": True}, {"orders": (1, 1.5)}, {"s_values": (1.5,)},
     {"s_values": (True,)}],
)
def test_campaign_rejects_a_count_that_is_not_an_integer_before_any_trial(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(recursions, "verify_identity", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="must be a positive integer|must be positive integers"):
        run_campaign(ids=["G-A+s-sum"], **{"trials": 1, **bad})
    assert calls == []


def _campaign_text(reports):
    return dump_document(verification_reports_to_document(reports, {}, "hypermat", "test"))


@pytest.mark.parametrize("draws", [True, False])
def test_campaign_reads_numpy_integers_as_the_ints_they_hold(monkeypatch, draws):
    # Rows that verify, and rows whose family cannot be drawn, which carry
    # the drawn order and shift themselves.
    if not draws:
        def fail(d, order, s_eff, rng):
            raise GenerationFailed(f"no family for {d.id}")

        monkeypatch.setattr(recursions, "draw_family", fail)
    kwargs = dict(ids=["G-A+s-sum", "G-A+1-contig", "F2-Cp-s-sum"], trials=2)
    plain = run_campaign(orders=(1, 2), s_values=(2, 3), seed=-5, **kwargs)
    numpy = run_campaign(
        orders=tuple(np.arange(1, 3)), s_values=tuple(np.arange(2, 4)), seed=np.int64(-5), **kwargs
    )
    assert _campaign_text(numpy) == _campaign_text(plain)


@pytest.mark.parametrize("seed", [1.5, True, None])
def test_campaign_rejects_a_seed_that_is_not_an_integer_before_any_trial(monkeypatch, seed):
    calls = []
    monkeypatch.setattr(recursions, "verify_identity", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_campaign(ids=["G-A+s-sum"], trials=1, seed=seed)
    assert calls == []


def test_verify_identity_stores_a_numpy_integer_seed_as_a_python_int():
    d = get("G-A+1-contig")
    params = scal_params(d.kind, {"A": 1.5, "B": 0.5, "C": 2.5})
    report = verify_identity(d, params, 1, EvalPoint(0.3), seed=np.int64(5))
    assert type(report.seed) is int and report.seed == 5
    text = dump_document(verification_reports_to_document([report], {}, "h", "v"))
    assert '"seed": 5' in text


@pytest.mark.parametrize("seed", [2.5, True])
def test_verify_identity_rejects_a_seed_that_is_not_an_integer(seed):
    d = get("G-A+1-contig")
    params = scal_params(d.kind, {"A": 1.5, "B": 0.5, "C": 2.5})
    with pytest.raises(ValueError, match="seed must be an integer"):
        verify_identity(d, params, 1, EvalPoint(0.3), seed=seed)


@pytest.mark.parametrize("campaign_tol", [math.nan, -1.0, 0.0, math.inf])
def test_verify_identity_rejects_a_campaign_tol_that_is_not_positive_and_finite(campaign_tol):
    d = get("G-A+s-sum")
    params = scal_params(d.kind, {"A": 1.5, "B": 0.5, "C": 2.5})
    assert verify_identity(d, params, 2, EvalPoint(0.3)).passed
    with pytest.raises(ValueError, match="campaign_tol must be positive and finite"):
        verify_identity(d, params, 2, EvalPoint(0.3), campaign_tol=campaign_tol)


@pytest.mark.parametrize("identity_id", ["G-A+s-sum", "G-A+1-contig"])
def test_residual_of_values_past_the_square_root_of_the_double_range(identity_id):
    # A = B = 80 at x = 0.9 sums to about 1e192: the squares of the plain
    # Frobenius norm overflow, and the residual read NaN, a false failure.
    d = get(identity_id)
    params = scal_params(d.kind, {"A": 80.0, "B": 80.0, "C": 1.5})
    report = verify_identity(d, params, 1, EvalPoint(0.9), SeriesConfig(max_degree=5000))
    assert report.error is None
    assert report.passed and report.residual <= 1e-12


def test_negative_shift_is_rejected_by_the_hypothesis_check_too():
    # An empty shift range used to pass the check while eval_rhs raised.
    d = get("G-A-s-sum")
    params = family_params(d, 2, seed=3)
    with pytest.raises(ValueError, match="shift count must be nonnegative"):
        check_hypotheses(d, params, -1)


def test_parameter_set_of_another_kind_is_rejected():
    d = get("F1-A+s-sum")
    params = scal_params(FunctionKind.GAUSS_2F1, {"A": 1.3, "B": 1.7, "C": 2.2})
    point = EvalPoint(0.2, 0.1)
    with pytest.raises(ValueError, match="parameter set is for 2F1"):
        check_hypotheses(d, params, 1)
    for enforce in (True, False):
        with pytest.raises(ValueError, match="parameter set is for 2F1"):
            eval_rhs(d, params, 1, point, enforce_hypotheses=enforce)
        with pytest.raises(ValueError, match="parameter set is for 2F1"):
            verify_identity(d, params, 1, point, enforce_hypotheses=enforce)


def test_singular_coefficient_shift_raises_singular_matrix():
    # C - I is singular; the inner series at C + (2-k)I = C, C + I still exist.
    d = get("G-C-s-sum")
    params = scal_params(d.kind, {"A": 1.3, "B": 1.7, "C": 1.0})
    with pytest.raises(HypothesisViolated):
        eval_rhs(d, params, 2, EvalPoint(0.25))
    with pytest.raises(SingularMatrix) as excinfo:
        eval_rhs(d, params, 2, EvalPoint(0.25), enforce_hypotheses=False)
    assert type(excinfo.value) is SingularMatrix


# Pairwise non-commuting order-2 parameters whose eigenvalues keep a distance
# of at least 0.15 from every integer, so each inner series and each
# coefficient inverse exists without any hypothesis holding.
NONCOMMUTING = {
    "A": [[1.7 + 0.1j, 0.4 + 0.3j], [0.3 + 0.3j, 0.6]],
    "Ap": [[1.7 - 0.2j, -0.6 + 0.2j], [-0.3 - 0.2j, 2.5 + 0.2j]],
    "B": [[1.9 - 0.3j, 0.6 - 0.3j], [0.3 + 0.2j, 0.5 + 0.2j]],
    "Bp": [[1.2, -0.6 - 0.3j], [-0.4 + 0.3j, 0.9 + 0.2j]],
    "C": [[2.1 + 0.2j, -0.6 + 0.3j], [-0.5 - 0.1j, 1.7 + 0.3j]],
    "Cp": [[1.9 + 0.3j, -0.4 - 0.3j], [0.6, 1.3 - 0.2j]],
}
NONCOMMUTING_POINTS = {
    FunctionKind.GAUSS_2F1: EvalPoint(0.25 + 0.1j),
    FunctionKind.APPELL_F1: EvalPoint(0.2 + 0.1j, 0.15 - 0.05j),
    FunctionKind.APPELL_F2: EvalPoint(0.2 + 0.1j, 0.15 - 0.05j),
    FunctionKind.APPELL_F3: EvalPoint(0.2 + 0.1j, 0.15 - 0.05j),
    FunctionKind.APPELL_F4: EvalPoint(0.12 + 0.06j, 0.1 - 0.04j),
}

# ||eval_rhs||_F at s = 2 on NONCOMMUTING with the hypotheses switched off,
# recorded from the hand-written right-hand sides that the term table
# replaced. The campaign only draws commuting families, on which every factor
# order gives the same value; these inputs tell the printed order apart.
PINNED_RHS_NORMS = {
    "G-A+1-contig": 3.2222799621865823,
    "G-A-1-contig": 1.7164149639907291,
    "G-A+s-sum": 4.536568282654967,
    "G-A-s-sum": 1.3386355431721513,
    "G-A+s-binom": 4.557122836996337,
    "G-A-s-binom": 1.3422366065433042,
    "G-B+s-sum": 4.037521749841905,
    "G-B-s-sum": 1.3816624657992251,
    "G-B+s-binom": 4.04951234035084,
    "G-B-s-binom": 1.3848820562813653,
    "G-C-1-contig": 5.792626202887825,
    "G-C-s-sum": 9.798379983263677,
    "F1-A+1-contig": 3.089266619013485,
    "F1-A-1-contig": 1.647256617343125,
    "F1-A+s-sum": 4.244611827330219,
    "F1-A-s-sum": 1.2327676901440523,
    "F1-A+s-multinom": 4.235927858380174,
    "F1-A-s-multinom": 1.2294456891997696,
    "F1-B+s-sum": 3.502664381511534,
    "F1-B-s-sum": 1.529252295201991,
    "F1-Bp+s-sum": 3.0801842318996293,
    "F1-Bp-s-sum": 1.6983567593986768,
    "F1-B+s-binom": 3.5026643815115373,
    "F1-B-s-binom": 1.5292522952019922,
    "F1-Bp+s-binom": 3.0801842318996324,
    "F1-Bp-s-binom": 1.6983567593986761,
    "F1-C-1-contig": 5.1606889342279,
    "F1-C-s-sum": 8.209564612407942,
    "F2-A+s-sum": 5.167881836342422,
    "F2-A-s-sum": 1.2204620412016352,
    "F2-A+s-multinom": 5.138850668930503,
    "F2-A-s-multinom": 1.2109195889024271,
    "F2-B+s-sum": 3.935799332793648,
    "F2-B-s-sum": 1.5244616978977024,
    "F2-Bp+s-sum": 3.484042691320393,
    "F2-Bp-s-sum": 1.7901515312089096,
    "F2-B+s-binom": 3.9419547760803098,
    "F2-B-s-binom": 1.5276852101085927,
    "F2-Bp+s-binom": 3.4840426913203943,
    "F2-Bp-s-binom": 1.7901515312089162,
    "F2-C-s-sum": 8.533925437436235,
    "F2-Cp-s-sum": 4.078412338728286,
    "F3-A+s-sum": 3.7124978466354346,
    "F3-A-s-sum": 1.6660581603648663,
    "F3-Ap+s-sum": 2.685949916434499,
    "F3-Ap-s-sum": 2.016060117880656,
    "F3-A+s-binom": 3.7090939516355785,
    "F3-A-s-binom": 1.6650925685091253,
    "F3-Ap+s-binom": 2.6855746142993877,
    "F3-Ap-s-binom": 2.014989059761452,
    "F3-B+s-sum": 3.3380071455788305,
    "F3-B-s-sum": 1.6280619823335472,
    "F3-Bp+s-sum": 2.9786542649569374,
    "F3-Bp-s-sum": 1.7508373134301332,
    "F3-B+s-binom": 3.3379752863398386,
    "F3-B-s-binom": 1.6289386763797475,
    "F3-Bp+s-binom": 2.9797751783431807,
    "F3-Bp-s-binom": 1.750793068040459,
    "F3-C-s-sum": 7.362982395858271,
    "F4-A+s-sum": 5.193266492830025,
    "F4-A-s-sum": 1.3479381946687001,
    "F4-A+s-multinom": 5.191730068667322,
    "F4-A-s-multinom": 1.341746431803433,
    "F4-B+s-sum": 4.5803636967224985,
    "F4-B-s-sum": 1.2862134670852379,
    "F4-B+s-multinom": 4.5881418297480945,
    "F4-B-s-multinom": 1.2872141486653084,
    "F4-C-s-sum": 4.937863953246435,
    "F4-Cp-s-sum": 4.260093209861181,
}


@pytest.mark.parametrize("d", catalog(), ids=lambda d: d.id)
def test_rhs_factor_order_on_noncommuting_input(d):
    params = ParameterSet(
        d.kind, {n: np.array(NONCOMMUTING[n]) for n in d.kind.parameter_names}
    )
    rhs = eval_rhs(d, params, 2, NONCOMMUTING_POINTS[d.kind], enforce_hypotheses=False)
    pinned = PINNED_RHS_NORMS[d.id]
    assert abs(np.linalg.norm(rhs) - pinned) <= 1e-10 * pinned


def test_noncommuting_inputs_are_clear_of_integers():
    for name, m in NONCOMMUTING.items():
        for z in np.linalg.eigvals(np.array(m)):
            assert abs(z - round(z.real)) >= 0.15, name
    for a in NONCOMMUTING:
        for b in NONCOMMUTING:
            if a < b:
                assert linalg.commutator_norm(
                    np.array(NONCOMMUTING[a]), np.array(NONCOMMUTING[b])
                ) > 0.5


def _display(name):
    return name.replace("p", "'")


@pytest.mark.parametrize(
    "d", [d for d in catalog() if d.swap_of is not None], ids=lambda d: d.id
)
def test_swap_row_renders_as_renamed_base_row(d):
    base = get(d.swap_of)
    mapping = dict(d.swap_map)
    shown = {_display(a): _display(b) for a, b in mapping.items()}
    renamed = re.sub(r"[AB]'?", lambda m: shown.get(m.group(), m.group()), base.formula)
    assert d.formula == renamed
    assert d.shifted_parameter == mapping[base.shifted_parameter]
    assert {frozenset(p) for p in d.commuting_pairs} == {
        frozenset(mapping.get(n, n) for n in p) for p in base.commuting_pairs
    }
    assert (d.kind, d.direction, d.form) == (base.kind, base.direction, base.form)


def test_rendered_formulas_are_pinned():
    assert get("G-C-s-sum").formula == (
        "2F1(A,B;C-sI) = 2F1(A,B;C) + sum_{k=1..s} "
        "[x*A*2F1(A+I,B+I;C+(2-k)I)*B*(C-kI)^-1*(C-(k-1)I)^-1]"
    )
    assert get("F2-Cp-s-sum").formula == (
        "F2(A,B,B';C,C'-sI) = F2(A,B,B';C,C') + sum_{k=1..s} "
        "[y*A*F2(A+I,B,B'+I;C,C'+(2-k)I)*(C'-kI)^-1*(C'-(k-1)I)^-1*B']"
    )
    # Both resolvents sit inside the sum, next to the inner value they follow.
    assert get("F3-C-s-sum").formula == (
        "F3(A,A',B,B';C-sI) = F3(A,A',B,B';C) + sum_{k=1..s} "
        "[x*A*B*F3(A+I,A',B+I,B';C+(2-k)I)*(C-kI)^-1*(C-(k-1)I)^-1"
        " + y*A'*F3(A,A'+I,B,B'+I;C+(2-k)I)*(C-kI)^-1*(C-(k-1)I)^-1*B']"
    )


def test_derived_decrement_rows_are_pinned():
    # A telescoping twin: signs flip, k runs 0..s-1, A moves by -k inside.
    assert get("G-A-s-sum").formula == (
        "2F1(A-sI,B;C) = 2F1(A,B;C) - sum_{k=0..s-1} [x*2F1(A-kI,B+I;C+I)*B*C^-1]"
    )
    # A multinomial twin: -x and -y, and A leaves the inner slot.
    assert get("F1-A-s-multinom").formula == (
        "F1(A-sI,B,B';C) = sum_{k1+k2<=s} [M(s,k1,k2)*(-x)^k1*(-y)^k2*(B)_k1"
        "*F1(A,B+k1I,B'+k2I;C+(k1+k2)I)*(B')_k2*(C)_{k1+k2}^-1]"
    )


def test_the_whole_catalog_listing_is_pinned(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 70
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5007c4f0b8cae9ba2c40d0e398a626234277b98f0109be1512b7319e58ddffe0"
    )


def test_each_decrement_recursion_is_stated_once():
    table = recursions._TABLE
    ids = {entry.id for entry in table}
    written = {entry.id: entry for entry in table if isinstance(entry, recursions._Row)}
    downs = [entry for entry in table if isinstance(entry, recursions._Down)]
    assert (len(written), len(downs)) == (29, 20)
    sums = (recursions.FORM_TELESCOPING, recursions.FORM_BINOMIAL, recursions.FORM_MULTINOMIAL)
    for row in written.values():
        if row.direction == recursions.DIRECTION_DECREMENT and row.form in sums:
            assert row.id.replace("-s-", "+s-") not in ids, row.id
    for entry in downs:
        twin = written[entry.of]
        assert twin.direction == recursions.DIRECTION_INCREMENT
        assert twin.form in sums
        assert entry.of == entry.id.replace("-s-", "+s-")


def test_contiguous_rows_render_at_shift_one():
    contiguous = [d for d in catalog() if d.form == FORM_CONTIGUOUS]
    assert len(contiguous) == 6
    for d in catalog():
        bound = "k<=1" if d in contiguous else "k<=s"
        assert d.hypotheses.endswith(bound), d.id
        assert " = " in d.formula
    for d in contiguous:
        assert "sum_" not in d.formula and "k" not in d.formula, d.id
    assert get("G-C-1-contig").formula == (
        "2F1(A,B;C-I) = 2F1(A,B;C) + x*A*2F1(A+I,B+I;C+I)*B*C^-1*(C-I)^-1"
    )


# -- Failure precedence -------------------------------------------------------
# The left-hand side and every inner series of a right-hand side are summed as
# one batch, but a failure is reported as evaluating them one at a time would
# report it: hypotheses first, then the left-hand side, then the coefficients,
# then the inner series in plan order, whichever of them fails first in time.


def diag(*values):
    return np.diag(values).astype(complex)


def test_failure_precedence_hypotheses_lhs_coefficients_inner_series():
    # C is singular. G-C-s-sum at s = 1 then fails its hypotheses; its left-hand
    # side F(A, B, C - I) meets (C - I) + I at degree 2; its coefficient C^-1 is
    # singular; and its first inner series F(A, B, C) meets C at degree 1.
    d = get("G-C-s-sum")
    params = ParameterSet(d.kind, {"A": diag(1.3, 1.6), "B": diag(1.7, 0.8), "C": diag(0.0, 2.5)})
    point = EvalPoint(0.2)
    assert verify_identity(d, params, 1, point).error.startswith("HypothesisViolated: ")
    report = verify_identity(d, params, 1, point, enforce_hypotheses=False)
    assert report.error == "SingularShift: base + 1*I is singular"
    assert (report.passed, report.lhs_report, report.rhs_degrees) == (False, None, 0)
    with pytest.raises(SingularMatrix) as excinfo:
        eval_rhs(d, params, 1, point, enforce_hypotheses=False)
    assert type(excinfo.value) is SingularMatrix
    assert str(excinfo.value) == "C - 0I is singular to working precision"
    with pytest.raises(SingularShift) as excinfo:
        evaluate(params, point)
    assert excinfo.value.shift == 1


def test_an_inverse_factorial_past_its_reach_raises_singular_shift():
    # C + 5I is singular, so (C)_6^-1 of the k = 6 term does not exist. The
    # coefficients raise before the inner series, the first of which to fail
    # here is F(A + 2I, B + 2I, C + 2I) at (C + 2I) + 3I: at x = 1e-9,
    # F(A, B, C) stops before it meets C + 5I.
    d = get("G-A+s-binom")
    params = ParameterSet(d.kind, {"A": diag(1.5, 2.0), "B": diag(1.2, 0.7), "C": diag(-5.0, 1.4)})
    with pytest.raises(SingularShift) as excinfo:
        eval_rhs(d, params, 6, EvalPoint(1e-9), enforce_hypotheses=False)
    assert (str(excinfo.value), excinfo.value.shift) == ("base + 5*I is singular", 6)


def test_inner_series_fail_in_plan_order():
    # C has eigenvalue -3: the base value F(A, B, C), first in the plan, meets
    # C + 3I at degree 4, after F(A+I, B+I, C+I) has met C + I + 2I at degree 3.
    d = get("G-A+s-sum")
    params = ParameterSet(d.kind, {"A": diag(1.5, 2.0), "B": diag(1.2, 0.7), "C": diag(-3.0, 1.4)})
    with pytest.raises(SingularShift) as excinfo:
        eval_rhs(d, params, 2, EvalPoint(0.1))
    assert (str(excinfo.value), excinfo.value.shift) == ("base + 3*I is singular", 4)


def test_inner_series_failure_after_a_converged_left_hand_side():
    # A = 2I: the left-hand side F(A - 2I, B, C) is I after one term, while
    # the base value F(A, B, C) = sum x^n still moves at degree 20 for x = 0.9.
    d = get("G-A-s-sum")
    params = ParameterSet(d.kind, {"A": diag(2.0, 2.0), "B": diag(1.0, 1.0), "C": diag(2.0, 2.0)})
    point, cfg = EvalPoint(0.9), SeriesConfig(max_degree=20)
    assert evaluate(params.moved({"A": -2}), point, cfg).converged
    report = verify_identity(d, params, 2, point, cfg, enforce_hypotheses=False)
    assert report.error == "NotConverged: series still moving at degree 20"
    assert (report.passed, report.lhs_report, report.rhs_degrees) == (False, None, 0)


TRUNCATED = SeriesConfig(max_degree=28)


@pytest.mark.parametrize(
    "identity_id,seed,side",
    [
        ("F2-C-s-sum", 5182257726463, "lhs"),
        ("F4-A-s-multinom", 110218443838906, "rhs"),
        ("F4-A-s-multinom", 110218443907975, "rhs"),
    ],
)
def test_truncated_campaign_failure_rows(identity_id, seed, side):
    # Rows of ``hypermat verify --trials 2 --max-degree 28 --seed 3``: the first
    # fails in its left-hand side, the other two only in an inner series.
    (row,) = [r for r in run_campaign(ids=[identity_id], trials=2, seed=3, cfg=TRUNCATED)
              if r.seed == seed]
    assert row.error == "NotConverged: double series still moving at degree 28"
    assert (row.passed, row.lhs_report, row.rhs_degrees) == (False, None, 0)
    d = get(identity_id)
    rng = random.Random(seed)
    order, s = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
    family = draw_family(d, order, d.effective_shift(s), rng)
    params = ParameterSet(d.kind, {n: family.realize(n) for n in d.kind.parameter_names})
    moved = d.shifted_parameter
    lhs = params.moved({moved: s if d.direction == "increment" else -s})
    point = draw_point(d.kind, rng)
    if side == "lhs":
        with pytest.raises(NotConverged):
            evaluate(lhs, point, TRUNCATED)
    else:
        assert evaluate(lhs, point, TRUNCATED).converged


def test_truncated_campaign_summary():
    reports = run_campaign(trials=2, seed=3, cfg=TRUNCATED)
    failed = [r for r in reports if not r.passed]
    assert (len(reports), len(failed)) == (138, 40)
    for row in failed:
        assert row.error.startswith("NotConverged: ")
        assert (row.lhs_report, row.rhs_degrees) == (None, 0)
