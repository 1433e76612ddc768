"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass; tolerances are pinned here and nowhere else.
"""

import cmath
import json
import math
import random
import time

import numpy as np
import pytest

from hypermat import linalg
from hypermat.calculus import (
    gamma_limit,
    pochhammer,
    pochhammer_inverse,
    random_commuting_family,
)
from hypermat.cli import main
from hypermat.recursions import (
    catalog,
    check_hypotheses,
    draw_point,
    eval_rhs,
    get,
    verify_identity,
)
from hypermat.series import EvalPoint, FunctionKind, ParameterSet, evaluate

from lemmas import (
    c_decrement_residual,
    reciprocal_gamma,
    reciprocal_gamma_residual,
    shift_identity_residual,
)
from oracles import scalar_value

SQRT_PI_HALF = 0.8862269254527580
TWO_LN_TWO = 1.3862943611198906

CROSS_FORM_PAIRS = [
    ("G-A+s-sum", "G-A+s-binom"),
    ("G-A-s-sum", "G-A-s-binom"),
    ("G-B+s-sum", "G-B+s-binom"),
    ("G-B-s-sum", "G-B-s-binom"),
    ("F1-A+s-sum", "F1-A+s-multinom"),
    ("F1-A-s-sum", "F1-A-s-multinom"),
    ("F1-B+s-sum", "F1-B+s-binom"),
    ("F1-B-s-sum", "F1-B-s-binom"),
    ("F1-Bp+s-sum", "F1-Bp+s-binom"),
    ("F1-Bp-s-sum", "F1-Bp-s-binom"),
    ("F2-A+s-sum", "F2-A+s-multinom"),
    ("F2-A-s-sum", "F2-A-s-multinom"),
    ("F2-B+s-sum", "F2-B+s-binom"),
    ("F2-B-s-sum", "F2-B-s-binom"),
    ("F2-Bp+s-sum", "F2-Bp+s-binom"),
    ("F2-Bp-s-sum", "F2-Bp-s-binom"),
    ("F3-A+s-sum", "F3-A+s-binom"),
    ("F3-A-s-sum", "F3-A-s-binom"),
    ("F3-Ap+s-sum", "F3-Ap+s-binom"),
    ("F3-Ap-s-sum", "F3-Ap-s-binom"),
    ("F3-B+s-sum", "F3-B+s-binom"),
    ("F3-B-s-sum", "F3-B-s-binom"),
    ("F3-Bp+s-sum", "F3-Bp+s-binom"),
    ("F3-Bp-s-sum", "F3-Bp-s-binom"),
    ("F4-A+s-sum", "F4-A+s-multinom"),
    ("F4-A-s-sum", "F4-A-s-multinom"),
    ("F4-B+s-sum", "F4-B+s-multinom"),
    ("F4-B-s-sum", "F4-B-s-multinom"),
]


def verdict(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def in_domain_point(kind, rng):
    def polar(mag):
        return mag * cmath.exp(2j * math.pi * rng.random())

    if kind is FunctionKind.GAUSS_2F1:
        return EvalPoint(polar(0.05 + 0.25 * rng.random()))
    if kind is FunctionKind.APPELL_F2:
        mx = 0.05 + 0.2 * rng.random()
        return EvalPoint(polar(mx), polar(0.05 + rng.random() * (0.4 - mx)))
    if kind is FunctionKind.APPELL_F4:
        rx = 0.1 + 0.4 * rng.random()
        ry = 0.1 + rng.random() * (0.6 - rx)
        return EvalPoint(polar(rx**2), polar(ry**2))
    return EvalPoint(polar(0.05 + 0.25 * rng.random()), polar(0.05 + 0.25 * rng.random()))


def family_params(kind, family):
    return ParameterSet(
        kind, {name: family.realize(name) for name in kind.parameter_names}
    )


def clearance_family(kind, order, seed, name, avoid_up_to):
    for attempt in range(200):
        fam = random_commuting_family(order, kind.parameter_names, seed + 997 * attempt)
        if all(
            abs(z - k) >= 0.1
            for z in fam.spectra[name]
            for k in range(avoid_up_to + 1)
        ):
            return fam
    raise AssertionError("sampling failed")


def test_criterion_1_identity_campaign(tmp_path):
    out = tmp_path / "campaign.json"
    started = time.time()
    code = main(
        [
            "verify",
            "--trials",
            "5",
            "--orders",
            "1,2,3",
            "--s",
            "1,2,3",
            "--seed",
            "0",
            "--tol",
            "1e-12",
            "--campaign-tol",
            "1e-8",
            "--out",
            str(out),
        ]
    )
    elapsed = time.time() - started
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["total"] == 5 * len(catalog())
    assert doc["summary"]["failed"] == 0
    residuals = [row["residual"] for row in doc["results"]]
    assert all(r is not None and r <= 1e-8 for r in residuals)
    verdict(
        1,
        f"full catalog campaign: {doc['summary']['total']} trials, "
        f"max residual {max(residuals):.3e} <= 1e-8, {elapsed:.1f}s",
    )


def test_criterion_2_scalar_reduction_oracle():
    worst = 0.0
    for kind in FunctionKind:
        rng = random.Random(202)
        for trial in range(20):
            fam = random_commuting_family(1, kind.parameter_names, seed=500 + trial)
            point = in_domain_point(kind, rng)
            value = evaluate(family_params(kind, fam), point).value[0, 0]
            expected = scalar_value(
                kind.value,
                {name: fam.spectra[name][0] for name in kind.parameter_names},
                point.x,
                point.y,
            )
            err = abs(value - expected) / (1.0 + abs(expected))
            worst = max(worst, err)
            assert err <= 1e-10, (kind, trial)
    verdict(2, f"r=1 naive-summation oracle, 20 points x 5 kinds, worst {worst:.3e} <= 1e-10")


def test_criterion_3_closed_form_spot_checks():
    log_params = ParameterSet(
        FunctionKind.GAUSS_2F1,
        {name: np.array([[v]], dtype=complex) for name, v in
         {"A": 1.0, "B": 1.0, "C": 2.0}.items()},
    )
    log_value = evaluate(log_params, EvalPoint(0.5)).value[0, 0]
    assert abs(log_value - TWO_LN_TWO) <= 1e-10
    geom_params = ParameterSet(
        FunctionKind.GAUSS_2F1,
        {name: np.array([[v]], dtype=complex) for name, v in
         {"A": 2.0, "B": 1.0, "C": 2.0}.items()},
    )
    geom_value = evaluate(geom_params, EvalPoint(0.3)).value[0, 0]
    assert abs(geom_value - 1.0 / 0.7) <= 1e-10
    verdict(3, "2F1(1,1;2;1/2) = 2 ln 2 and 2F1(2,1;2;0.3) = 1/0.7, both to 1e-10")


def test_criterion_4_diagonal_oracle():
    worst = 0.0
    for kind in FunctionKind:
        fam = random_commuting_family(3, kind.parameter_names, seed=404)
        rng = random.Random(404)
        p, p_inv = fam.transform, fam.transform_inverse
        for trial in range(10):
            point = in_domain_point(kind, rng)
            value = evaluate(family_params(kind, fam), point).value
            scalars = [
                scalar_value(
                    kind.value,
                    {name: fam.spectra[name][i] for name in kind.parameter_names},
                    point.x,
                    point.y,
                )
                for i in range(3)
            ]
            expected = p @ np.diag(scalars) @ p_inv
            err = np.linalg.norm(value - expected) / (1.0 + np.linalg.norm(expected))
            worst = max(worst, err)
            assert err <= 1e-9, (kind, trial)
    verdict(4, f"r=3 diagonal oracle, 10 points x 5 kinds, worst {worst:.3e} <= 1e-9")


def test_criterion_5_cross_form_consistency():
    worst = 0.0
    checked = 0
    for sum_id, closed_id in CROSS_FORM_PAIRS:
        d_sum, d_closed = get(sum_id), get(closed_id)
        for s in (1, 2, 3):
            for trial in range(5):
                seed = 5000 + 29 * checked
                rng = random.Random(seed)
                order = (1, 2, 3)[trial % 3]
                fam = clearance_family(
                    d_sum.kind, order, seed, d_sum.shifted_parameter, s
                )
                params = family_params(d_sum.kind, fam)
                point = draw_point(d_sum.kind, rng)
                a = eval_rhs(d_sum, params, s, point)
                b = eval_rhs(d_closed, params, s, point)
                err = np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a))
                worst = max(worst, err)
                checked += 1
                assert err <= 1e-9, (sum_id, closed_id, s, trial)
    verdict(
        5,
        f"telescoping vs binomial/multinomial: {checked} comparisons across "
        f"{len(CROSS_FORM_PAIRS)} pairs, worst {worst:.3e} <= 1e-9",
    )


def test_criterion_6_preliminary_lemma_residuals():
    worst = 0.0
    for seed in (1, 2, 3):
        fam = clearance_family(FunctionKind.GAUSS_2F1, 3, seed, "C", 1)
        a = fam.realize("A")
        c = fam.realize("C")
        for n in range(1, 11):
            shift_rel = shift_identity_residual(a, n) / (
                np.linalg.norm(pochhammer(a + np.eye(3), n))
            )
            dec_rel = c_decrement_residual(c, n) / (
                np.linalg.norm(pochhammer_inverse(c - np.eye(3), n))
            )
            gamma_rel = reciprocal_gamma_residual(fam, "A", n) / (
                np.linalg.norm(reciprocal_gamma(fam, "A"))
            )
            worst = max(worst, shift_rel, dec_rel, gamma_rel)
            assert shift_rel <= 1e-9
            assert dec_rel <= 1e-9
            assert gamma_rel <= 1e-9
    verdict(6, f"shifted-factorial and reciprocal-gamma lemmas, n <= 10, worst {worst:.3e} <= 1e-9")


def test_criterion_7_gamma_limit():
    base = np.array([[1.5]], dtype=complex)
    err_n = abs(gamma_limit(base, 10**4)[0, 0] - SQRT_PI_HALF)
    err_2n = abs(gamma_limit(base, 2 * 10**4)[0, 0] - SQRT_PI_HALF)
    assert err_n <= 1e-3
    assert err_2n < err_n
    verdict(
        7,
        f"gamma limit at diag(1.5): error {err_n:.2e} <= 1e-3 at n=1e4, "
        f"{err_2n:.2e} at n=2e4 (strictly smaller)",
    )


def test_criterion_8_hypothesis_tripwire():
    d = get("G-A+s-sum")
    params = ParameterSet(
        d.kind,
        {
            "A": np.diag([1.3, 1.7]).astype(complex),
            "B": np.diag([1.0, 2.0]).astype(complex),
            "C": np.array([[2.0, 2.0], [0.0, 2.5]], dtype=complex),
        },
    )
    defect = linalg.commutator_norm(params["B"], params["C"])
    assert defect >= 1.0
    assert not check_hypotheses(d, params, 2)
    report = verify_identity(d, params, 2, EvalPoint(0.25), enforce_hypotheses=False)
    assert report.error is None
    assert report.residual > 1e-4
    verdict(
        8,
        f"non-commuting C (defect {defect:.2f}) rejected by the hypothesis "
        f"check and breaks the identity (residual {report.residual:.2e} > 1e-4)",
    )


def test_criterion_9_verify_determinism(tmp_path):
    args = [
        "verify",
        "--ids",
        "G-A+s-sum,G-C-s-sum,F1-A+s-multinom,F2-Cp-s-sum,F3-Bp+s-binom,F4-B-s-multinom",
        "--trials",
        "2",
        "--orders",
        "1,2,3",
        "--s",
        "1,2,3",
        "--seed",
        "77",
    ]
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    bytes_one, bytes_two = first.read_bytes(), second.read_bytes()
    assert bytes_one == bytes_two
    verdict(9, f"repeated seeded verify produced byte-identical reports ({len(bytes_one)} bytes)")
