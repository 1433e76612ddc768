import cmath
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from hypermat import linalg, series
from hypermat.calculus import CHAIN_BLOCK, PochhammerChain, random_commuting_family
from hypermat.documents import EvaluationInput, dump_document, eval_report_to_document
from hypermat.errors import DimensionMismatch, DomainViolation, NotConverged, SingularShift
from hypermat.series import (
    DEFAULT_CONFIG,
    EvalPoint,
    FunctionKind,
    ParameterSet,
    SeriesConfig,
    check_domain,
    _BLOCK_ENTRIES,
    evaluate,
    evaluate_many,
)

from oracles import PRINTED_TERMS, per_degree_exit, printed_order_sum, scalar_value

TWO_LN_TWO = 1.3862943611198906

# Frozen spot values from the scalar double-sum oracle.
F1_SPOT = 1.5415067982725830  # F1(1,1,1;2; 0.3, 0.4)
F2_SPOT = 1.3093208994922451  # F2(1,1,1;2,2; 0.25, 0.2)
F3_SPOT = 1.4956906339736605  # F3(1,1,1,1;2; 0.3, 0.4)
F4_SPOT = 1.1605485025820499  # F4(1,1;2,2; 0.15, 0.1)

ALL_KINDS = list(FunctionKind)


def scal(value):
    return np.array([[value]], dtype=complex)


def scalar_params(kind, values):
    return ParameterSet(kind, {name: scal(v) for name, v in values.items()})


def family_params(kind, family):
    return ParameterSet(
        kind, {name: family.realize(name) for name in kind.parameter_names}
    )


def in_domain_point(kind, rng):
    def polar(mag):
        phase = 2 * math.pi * rng.random()
        return mag * cmath.exp(1j * phase)

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


def test_domain_examples():
    assert check_domain(FunctionKind.APPELL_F2, EvalPoint(0.4, 0.5))
    assert not check_domain(FunctionKind.APPELL_F4, EvalPoint(0.25, 0.25))
    assert check_domain(FunctionKind.GAUSS_2F1, EvalPoint(0.0))
    assert not check_domain(FunctionKind.GAUSS_2F1, EvalPoint(1.0))
    assert check_domain(FunctionKind.APPELL_F1, EvalPoint(0.99, -0.99))
    assert not check_domain(FunctionKind.APPELL_F2, EvalPoint(0.6, 0.4))


def test_gauss_at_zero_is_identity():
    fam = random_commuting_family(3, FunctionKind.GAUSS_2F1.parameter_names, seed=1)
    report = evaluate(family_params(FunctionKind.GAUSS_2F1, fam), EvalPoint(0.0))
    assert np.array_equal(report.value, np.eye(3))
    assert report.converged


def test_gauss_zero_numerator_parameter():
    params = ParameterSet(
        FunctionKind.GAUSS_2F1,
        {"A": scal(1.0), "B": linalg.zeros(1), "C": scal(2.0)},
    )
    report = evaluate(params, EvalPoint(0.7))
    assert np.array_equal(report.value, np.eye(1))


def test_gauss_closed_form_log():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    value = evaluate(params, EvalPoint(0.5)).value[0, 0]
    assert abs(value - TWO_LN_TWO) <= 1e-10


def test_gauss_closed_form_geometric():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 2.0, "B": 1.0, "C": 2.0})
    value = evaluate(params, EvalPoint(0.3)).value[0, 0]
    assert abs(value - 1.0 / 0.7) <= 1e-10


@pytest.mark.parametrize(
    "name,kind,values,point,expected",
    [
        ("appell_f1", FunctionKind.APPELL_F1,
         {"A": 1.0, "B": 1.0, "Bp": 1.0, "C": 2.0}, (0.3, 0.4), F1_SPOT),
        ("appell_f2", FunctionKind.APPELL_F2,
         {"A": 1.0, "B": 1.0, "Bp": 1.0, "C": 2.0, "Cp": 2.0}, (0.25, 0.2), F2_SPOT),
        ("appell_f3", FunctionKind.APPELL_F3,
         {"A": 1.0, "Ap": 1.0, "B": 1.0, "Bp": 1.0, "C": 2.0}, (0.3, 0.4), F3_SPOT),
        ("appell_f4", FunctionKind.APPELL_F4,
         {"A": 1.0, "B": 1.0, "C": 2.0, "Cp": 2.0}, (0.15, 0.1), F4_SPOT),
    ],
)
def test_appell_frozen_spot_values(name, kind, values, point, expected):
    report = evaluate(scalar_params(kind, values), EvalPoint(*point))
    assert abs(report.value[0, 0] - expected) <= 1e-10, name


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k.is_two_variable])
def test_appell_origin_is_identity(kind):
    fam = random_commuting_family(2, kind.parameter_names, seed=2)
    report = evaluate(family_params(kind, fam), EvalPoint(0.0, 0.0))
    assert np.array_equal(report.value, np.eye(2))


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k.is_two_variable])
def test_appell_y_zero_reduces_to_gauss(kind):
    fam = random_commuting_family(
        2, ("A", "Ap", "B", "Bp", "C", "Cp"), seed=3
    )
    x = 0.23 + 0.08j
    gauss = evaluate(
        ParameterSet(
            FunctionKind.GAUSS_2F1,
            {"A": fam.realize("A"), "B": fam.realize("B"), "C": fam.realize("C")},
        ),
        EvalPoint(x),
    ).value
    reduced = evaluate(family_params(kind, fam), EvalPoint(x, 0.0)).value
    assert np.linalg.norm(reduced - gauss) <= 1e-12 * np.linalg.norm(gauss)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scalar_reduction_oracle(kind):
    rng = random.Random(hash(kind.value) % 1000)
    for trial in range(8):
        fam = random_commuting_family(1, kind.parameter_names, seed=100 + trial)
        spectra = {name: fam.spectra[name][0] for name in kind.parameter_names}
        point = in_domain_point(kind, rng)
        report = evaluate(family_params(kind, fam), point)
        expected = scalar_value(kind.value, spectra, point.x, point.y)
        assert abs(report.value[0, 0] - expected) <= 1e-10 * (1.0 + abs(expected))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_diagonal_oracle(kind):
    # Master correctness property: on a shared eigenbasis the matrix value is
    # the scalar value applied eigenvalue-by-eigenvalue.
    fam = random_commuting_family(3, kind.parameter_names, seed=11)
    rng = random.Random(31)
    p, p_inv = fam.transform, fam.transform_inverse
    for trial in range(4):
        point = in_domain_point(kind, rng)
        report = evaluate(family_params(kind, fam), point)
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
        assert np.linalg.norm(report.value - expected) <= 1e-9 * (
            1.0 + np.linalg.norm(expected)
        )


# Points well inside each region, so 60 diagonals of the reference leave a
# tail far below the 1e-12 comparison.
ORDER_POINTS = {
    FunctionKind.GAUSS_2F1: EvalPoint(0.3 + 0.1j),
    FunctionKind.APPELL_F1: EvalPoint(0.25, -0.2 + 0.05j),
    FunctionKind.APPELL_F2: EvalPoint(0.2, 0.15j),
    FunctionKind.APPELL_F3: EvalPoint(-0.25, 0.2),
    FunctionKind.APPELL_F4: EvalPoint(0.06, 0.04 - 0.02j),
}


def non_commuting_matrix(rng, order):
    """P diag(spectrum) P^-1 with its own well-conditioned P."""
    p = np.eye(order) + 0.4 * (
        rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    )
    spectrum = rng.uniform(0.8, 2.5, order) + 1j * rng.uniform(-0.3, 0.3, order)
    return p @ np.diag(spectrum) @ np.linalg.inv(p)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_printed_order_is_load_bearing(kind):
    # With pairwise non-commuting parameters, the series must multiply each
    # term exactly as printed: it matches a term-by-term printed-order sum,
    # and swapping any adjacent pair of factors visibly moves that sum. This
    # guards against any "simplification" that assumes commutativity.
    rng = np.random.default_rng(5)
    names = kind.parameter_names
    matrices = {name: non_commuting_matrix(rng, 3) for name in names}
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            assert linalg.commutator_norm(matrices[first], matrices[second]) > 0.1
    point = ORDER_POINTS[kind]
    cfg = SeriesConfig()
    value = evaluate(ParameterSet(kind, matrices), point, cfg).value

    printed = PRINTED_TERMS[kind.value]
    reference = printed_order_sum(printed, matrices, point.x, point.y)
    scale = np.linalg.norm(reference)
    assert np.linalg.norm(value - reference) <= 1e-12 * scale
    for i in range(len(printed) - 1):
        swapped = printed[:i] + (printed[i + 1], printed[i]) + printed[i + 2:]
        moved = printed_order_sum(swapped, matrices, point.x, point.y)
        assert np.linalg.norm(moved - reference) > 10 * cfg.tol * scale


@pytest.mark.parametrize("order", [2, 5])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_kernel_matches_the_printed_order_sum(kind, order):
    # A batch of three pairwise non-commuting members, at an order of the
    # entries-first kernel (2) and of the per-matrix kernel (5): each member
    # matches the term-by-term printed-order sum, so multiplying a
    # diagonal's shared N-indexed end factors once, outside its sum over m,
    # keeps every factor in its printed place.
    rng = np.random.default_rng(23)
    names = kind.parameter_names
    members = [
        ParameterSet(kind, {name: non_commuting_matrix(rng, order) for name in names})
        for _ in range(3)
    ]
    point = ORDER_POINTS[kind]
    for member, report in zip(members, evaluate_many(members, point)):
        reference = printed_order_sum(PRINTED_TERMS[kind.value], member.matrices, point.x, point.y)
        assert np.linalg.norm(report.value - reference) <= 1e-12 * np.linalg.norm(reference)


# Each denominator with eigenvalue -2: its shift C + 2I is singular, which the
# inverse chain meets at (C)_3^-1.
SINGULAR_DENOMINATORS = [(kind, "C") for kind in ALL_KINDS] + [
    (FunctionKind.APPELL_F2, "Cp"),
    (FunctionKind.APPELL_F4, "Cp"),
]


@pytest.mark.parametrize("kind,name", SINGULAR_DENOMINATORS)
def test_singular_denominator_reports_shift(kind, name):
    matrices = {p: np.diag([1.5, 2.0]).astype(complex) for p in kind.parameter_names}
    matrices[name] = np.diag([-2.0, 1.0]).astype(complex)
    point = EvalPoint(0.1, 0.05) if kind.is_two_variable else EvalPoint(0.1)
    with pytest.raises(SingularShift) as err:
        evaluate(ParameterSet(kind, matrices), point)
    assert err.value.shift == 3


def test_symmetry_under_commutation():
    fam = random_commuting_family(3, ("A", "B", "C"), seed=17)
    a, b, c = fam.realize("A"), fam.realize("B"), fam.realize("C")
    assert linalg.commutator_norm(a, b) <= 1e-11 * (
        linalg.frobenius_norm(a) * linalg.frobenius_norm(b)
    )
    x = EvalPoint(0.27 - 0.05j)
    direct = evaluate(
        ParameterSet(FunctionKind.GAUSS_2F1, {"A": a, "B": b, "C": c}), x
    ).value
    swapped = evaluate(
        ParameterSet(FunctionKind.GAUSS_2F1, {"A": b, "B": a, "C": c}), x
    ).value
    assert np.linalg.norm(direct - swapped) <= 1e-10 * (1.0 + np.linalg.norm(direct))


def test_truncation_monotone_in_tol():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.3, "B": 0.7, "C": 2.1})
    tols = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
    degrees = [
        evaluate(params, EvalPoint(0.45), SeriesConfig(tol=t)).degrees_used
        for t in tols
    ]
    assert degrees == sorted(degrees)


def test_report_invariant_on_convergence():
    fam = random_commuting_family(2, FunctionKind.APPELL_F2.parameter_names, seed=23)
    cfg = SeriesConfig(tol=1e-10)
    report = evaluate(family_params(FunctionKind.APPELL_F2, fam), EvalPoint(0.2, 0.15), cfg)
    assert report.converged
    assert report.last_increment_norm <= cfg.tol * (
        1.0 + np.linalg.norm(report.value)
    )


def test_domain_violation_raised():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    with pytest.raises(DomainViolation):
        evaluate(params, EvalPoint(1.0))


def test_domain_guard_can_be_disabled():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": -3.0, "C": 2.0})
    # Terminating series: (B)_n vanishes past n = 3, so |x| = 1 is harmless.
    cfg = SeriesConfig(enforce_domain=False)
    report = evaluate(params, EvalPoint(1.0), cfg)
    assert report.converged


def test_not_converged_carries_partial_report():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    with pytest.raises(NotConverged) as err:
        evaluate(params, EvalPoint(0.95), SeriesConfig(max_degree=10))
    assert err.value.report is not None
    assert not err.value.report.converged


@pytest.mark.parametrize("max_degree", [2.5, 3.0, np.float64(4.0), True, False, 0])
def test_config_rejects_a_max_degree_that_is_not_a_positive_integer(max_degree):
    with pytest.raises(ValueError, match="max_degree"):
        SeriesConfig(max_degree=max_degree)


def test_config_accepts_a_numpy_integer_max_degree():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    cfg = SeriesConfig(max_degree=np.int64(60))
    assert evaluate(params, EvalPoint(0.3), cfg).converged


# 2F1(1, 1; 2; 0.3) = -ln(0.7) / 0.3 meets the stopping rule at degree 22.
LOG_PARAMS = {"A": 1.0, "B": 1.0, "C": 2.0}
LOG_DEGREE = 22


def test_a_member_that_converges_at_the_cap_is_converged():
    params = scalar_params(FunctionKind.GAUSS_2F1, LOG_PARAMS)
    assert evaluate(params, EvalPoint(0.3)).degrees_used == LOG_DEGREE
    report = evaluate(params, EvalPoint(0.3), SeriesConfig(max_degree=LOG_DEGREE))
    assert (report.converged, report.degrees_used) == (True, LOG_DEGREE)


@pytest.mark.parametrize("max_degree", [LOG_DEGREE - 1, np.int64(LOG_DEGREE - 1)])
def test_one_degree_short_of_convergence_is_the_cap(max_degree):
    params = scalar_params(FunctionKind.GAUSS_2F1, LOG_PARAMS)
    point = EvalPoint(0.3)
    with pytest.raises(NotConverged, match=r"^series still moving at degree 21$") as err:
        evaluate(params, point, SeriesConfig(max_degree=max_degree))
    report = err.value.report
    assert type(report.degrees_used) is int
    assert (report.converged, report.degrees_used) == (False, LOG_DEGREE - 1)
    assert math.isfinite(report.last_increment_norm) and report.last_increment_norm > 0
    data = EvaluationInput(params, point, echo={})
    assert '"degrees_used": 21' in dump_document(eval_report_to_document(report, data, False))


def test_a_singular_shift_at_the_cap_is_the_singular_shift():
    # C = -2: C + 2I is singular, so the increment is first NaN at degree 3.
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": -2.0})
    with pytest.raises(SingularShift) as err:
        evaluate(params, EvalPoint(0.3), SeriesConfig(max_degree=3))
    assert err.value.shift == 3
    with pytest.raises(NotConverged, match=r"^series still moving at degree 2$"):
        evaluate(params, EvalPoint(0.3), SeriesConfig(max_degree=2))


def test_parameter_set_validation():
    with pytest.raises(ValueError):
        ParameterSet(FunctionKind.GAUSS_2F1, {"A": scal(1.0), "B": scal(1.0)})
    with pytest.raises(Exception):
        ParameterSet(
            FunctionKind.GAUSS_2F1,
            {"A": scal(1.0), "B": scal(1.0), "C": np.eye(2, dtype=complex)},
        )


def test_parameter_set_matrices_are_read_only():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    for copy in (params, params.moved({"A": 1}), params.moved({"B": 2})):
        with pytest.raises(TypeError):
            copy.matrices["C"] = np.eye(3, dtype=complex)


SIGNATURES = {
    FunctionKind.GAUSS_2F1: (("A", "B"), ("C",)),
    FunctionKind.APPELL_F1: (("A", "B", "Bp"), ("C",)),
    FunctionKind.APPELL_F2: (("A", "B", "Bp"), ("C", "Cp")),
    FunctionKind.APPELL_F3: (("A", "Ap", "B", "Bp"), ("C",)),
    FunctionKind.APPELL_F4: (("A", "B"), ("C", "Cp")),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_kinds_numerators_and_denominators_split_its_slots_in_term_order(kind):
    terms = series._TERMS[kind]
    assert (kind.numerator_names, kind.denominator_names) == SIGNATURES[kind]
    assert kind.numerator_names == tuple(name for name, inverse, _ in terms if not inverse)
    assert kind.denominator_names == tuple(name for name, inverse, _ in terms if inverse)
    slots = kind.numerator_names + kind.denominator_names
    assert sorted(slots) == sorted(kind.parameter_names) and len(set(slots)) == len(slots)


def test_renaming_onto_an_occupied_slot_is_refused():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.5, "C": 2.0})
    with pytest.raises(ValueError, match="needs parameters"):
        params.renamed({"A": "B"})
    with pytest.raises(ValueError, match="needs parameters"):
        params.renamed({"A": "Z"})


def test_moving_an_unknown_parameter_is_refused_by_name():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.5, "C": 2.0})
    with pytest.raises(ValueError, match=r"2F1 needs parameters \['A', 'B', 'C'\], got .*'Z'"):
        params.moved({"Z": 1})
    moved = params.moved({"A": 2, "C": -1})
    assert moved["A"][0, 0] == 3.0 and moved["C"][0, 0] == 1.0 and moved["B"] is params["B"]


def test_a_renamed_copy_holds_the_callers_arrays():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.5, "C": 2.0})
    copy = params.renamed({"A": "B", "B": "A"})
    assert copy.kind is params.kind
    assert copy["C"] is params["C"]
    assert copy["A"] is params["B"] and copy["B"] is params["A"]
    with pytest.raises(TypeError):
        copy.matrices["C"] = np.eye(1, dtype=complex)


def test_point_arity_enforced():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    with pytest.raises(ValueError):
        evaluate(params, EvalPoint(0.1, 0.1))
    fam = random_commuting_family(1, FunctionKind.APPELL_F1.parameter_names, seed=4)
    with pytest.raises(ValueError):
        evaluate(family_params(FunctionKind.APPELL_F1, fam), EvalPoint(0.1))


def test_check_domain_refuses_a_second_variable_for_2f1():
    with pytest.raises(ValueError, match="^2F1 takes a single variable$"):
        check_domain(FunctionKind.GAUSS_2F1, EvalPoint(0.5, 0.1))
    # The arity is checked with the domain guard off too.
    params = scalar_params(FunctionKind.GAUSS_2F1, LOG_PARAMS)
    with pytest.raises(ValueError, match="^2F1 takes a single variable$"):
        evaluate(params, EvalPoint(0.5, 0.1), SeriesConfig(enforce_domain=False))


def classical_region(kind, point):
    """Each kind's region as its scalar theory states it, boundary excluded."""
    ax, ay = abs(point.x), abs(point.y or 0)
    if kind is FunctionKind.GAUSS_2F1:
        return ax < 1.0
    if kind in (FunctionKind.APPELL_F1, FunctionKind.APPELL_F3):
        return ax < 1.0 and ay < 1.0
    if kind is FunctionKind.APPELL_F2:
        return ax + ay < 1.0
    return math.sqrt(ax) + math.sqrt(ay) < 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_gauge_decides_the_region_and_sizes_the_first_turn(kind):
    # check_domain keeps the region's boundary and a NaN coordinate outside,
    # on the edge and one ulp to either side of it; the predicted stopping
    # degree reads the same gauge inside and is 0 outside.
    edges = {
        FunctionKind.GAUSS_2F1: [(1.0, None), (0.6, None)],
        FunctionKind.APPELL_F1: [(1.0, 0.3), (0.3, 1.0), (0.6, 0.2)],
        FunctionKind.APPELL_F2: [(0.5, 0.5), (0.75, 0.25), (0.4, 0.2)],
        FunctionKind.APPELL_F3: [(1.0, 0.3), (0.3, 1.0), (0.6, 0.2)],
        FunctionKind.APPELL_F4: [(0.25, 0.25), (0.5625, 0.0625), (0.1, 0.2)],
    }[kind]
    tol = DEFAULT_CONFIG.tol
    for x, y in edges:
        for dx in (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0)):
            for point in (EvalPoint(dx, y), EvalPoint(-1j * dx, y and -y), EvalPoint(math.nan, y)):
                inside = check_domain(kind, point)
                assert inside is classical_region(kind, point)
                degree = series._predicted_degree(kind, point.x, point.y, tol)
                rate = series._decay_rate(kind, point.x, point.y)
                assert (degree > 0) is (inside and rate > 0.0)
                if 0 < degree < 1000:
                    assert rate ** degree <= tol < rate ** (degree - 1)
    if kind.is_two_variable:
        assert not check_domain(kind, EvalPoint(0.1, math.nan))


def assert_same_report(batched, alone):
    # A member's sum depends neither on its batch nor on the blocks of
    # diagonals the batch is formed in, so the two agree to the last bit.
    assert (batched.degrees_used, batched.converged) == (alone.degrees_used, alone.converged)
    assert np.array_equal(batched.value, alone.value, equal_nan=True)
    assert batched.last_increment_norm == alone.last_increment_norm


def budget_size(order):
    """A batch size past which even the 2F1 block is cut short by the entry budget."""
    return _BLOCK_ENTRIES // (CHAIN_BLOCK * order * order) + 1


@pytest.mark.parametrize("size", [1, 2, 5, "budget"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_members_equal_lone_evaluations(kind, size):
    # Pairwise non-commuting members, every other one an integer-shifted copy
    # of the first as a right-hand side builds them, each summed to its own
    # stopping degree inside the batch, at orders on both sides of the
    # entries-first kernel. The "budget" batch repeats five members until the
    # entry budget shortens every block.
    rng = np.random.default_rng(11)
    names = kind.parameter_names
    for order in (1, 2, 3, 5):
        first = ParameterSet(kind, {name: non_commuting_matrix(rng, order) for name in names})
        members = [first]
        while len(members) < (5 if size == "budget" else size):
            if len(members) % 2:
                members.append(first.moved({names[len(members) % len(names)]: len(members)}))
            else:
                members.append(
                    ParameterSet(kind, {n: non_commuting_matrix(rng, order) for n in names})
                )
        alone = [evaluate(member, ORDER_POINTS[kind]) for member in members]
        if size == "budget":
            count = budget_size(order)
            members, alone = members * (count // 5 + 1), alone * (count // 5 + 1)
        batch = evaluate_many(members, ORDER_POINTS[kind])
        for report, lone in zip(batch, alone):
            assert_same_report(report, lone)
        if len(members) >= 5:
            assert len({report.degrees_used for report in batch}) > 1


def raised(params, point, cfg):
    with pytest.raises(Exception) as excinfo:
        evaluate(params, point, cfg)
    return excinfo.value


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_members_fail_alone(kind):
    # One member's C has eigenvalue -2 and one member's numerators are large
    # enough to need more degrees than the others; each leaves the batch with
    # the exception it raises alone, and the rest still converge.
    names = kind.parameter_names
    plain = ParameterSet(kind, {name: np.diag([1.5, 2.0]).astype(complex) for name in names})
    singular = ParameterSet(kind, {**plain.matrices, "C": np.diag([-2.0, 1.0]).astype(complex)})
    slow = plain
    for name in names:
        if name not in kind.denominator_names:
            slow = slow.moved({name: 8})
    point = EvalPoint(0.1, 0.05) if kind.is_two_variable else EvalPoint(0.1)
    cfg = SeriesConfig(max_degree=evaluate(plain, point).degrees_used + 2)
    members = [plain, singular, slow, plain.moved({"A": 1})]
    batch = evaluate_many(members, point, cfg)
    assert isinstance(batch[1], SingularShift) and batch[1].shift == 3
    assert isinstance(batch[2], NotConverged)
    for member, outcome in zip(members[1:3], batch[1:3]):
        alone = raised(member, point, cfg)
        assert (type(outcome), str(outcome)) == (type(alone), str(alone))
    assert_same_report(batch[2].report, raised(slow, point, cfg).report)
    assert batch[2].report.degrees_used == cfg.max_degree
    for index in (0, 3):
        assert batch[index].converged
        assert_same_report(batch[index], evaluate(members[index], point, cfg))


def recorded_turns(monkeypatch):
    """The (lo, hi) degrees of every block the engine forms, in order."""
    turns, block_sums = [], series._block_sums

    def recorded(runs, indices, middle, lo, hi, *rest):
        turns.append((lo, hi))
        return block_sums(runs, indices, middle, lo, hi, *rest)

    monkeypatch.setattr(series, "_block_sums", recorded)
    return turns


def turn_of(turns, degree):
    (turn,) = [(lo, hi) for lo, hi in turns if lo <= degree <= hi]
    return turn


# Points whose predicted stopping degree is 7, so the first turn is the
# CHAIN_BLOCK diagonals 0..7.
SHORT_TURN_POINTS = {
    FunctionKind.GAUSS_2F1: EvalPoint(0.015j),
    FunctionKind.APPELL_F1: EvalPoint(0.015, -0.01),
    FunctionKind.APPELL_F2: EvalPoint(0.008, 0.007j),
    FunctionKind.APPELL_F3: EvalPoint(-0.015, 0.01j),
    FunctionKind.APPELL_F4: EvalPoint(0.004, 0.003),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_singular_members_keep_their_own_reach_across_blocks(kind, monkeypatch):
    # At order 2 the first turn at these points is CHAIN_BLOCK diagonals, and
    # the inverse chain grows once per turn. C + 2I stops one member in the
    # first turn; C + 10I stops the other in a later one, whose reach is known
    # only once the chain has grown again for that turn. Read before that
    # growth, it would be 8, not 10. Numerators moved by 12I keep every member
    # moving past degree 11.
    point = SHORT_TURN_POINTS[kind]
    assert series._predicted_degree(kind, point.x, point.y, DEFAULT_CONFIG.tol) == CHAIN_BLOCK - 1
    rng = np.random.default_rng(27)
    names = kind.parameter_names
    plain = ParameterSet(kind, {name: non_commuting_matrix(rng, 2) for name in names})
    plain = plain.moved({name: 12 for name in kind.numerator_names})
    members = [
        ParameterSet(kind, {**plain.matrices, "C": np.diag([-2.0, 1.5]).astype(complex)}),
        ParameterSet(kind, {**plain.matrices, "C": np.diag([-10.0, 1.5]).astype(complex)}),
        plain,
    ]
    turns = recorded_turns(monkeypatch)
    batch = evaluate_many(members, point)
    assert [getattr(outcome, "shift", None) for outcome in batch] == [3, 11, None]
    assert turn_of(turns, 3) == (0, CHAIN_BLOCK - 1)
    assert turn_of(turns, 11)[0] > CHAIN_BLOCK - 1
    for member, outcome in zip(members[:2], batch[:2]):
        alone = raised(member, point, DEFAULT_CONFIG)
        assert (type(outcome), str(outcome)) == (type(alone), str(alone))
    assert batch[2].converged
    assert_same_report(batch[2], evaluate(plain, point))


# Points near each region's edge, where every kind is still moving at degree 21
# and no kind converges before degree 11.
EDGE_POINTS = {
    FunctionKind.GAUSS_2F1: EvalPoint(0.9),
    FunctionKind.APPELL_F1: EvalPoint(0.8, -0.7),
    FunctionKind.APPELL_F2: EvalPoint(0.5, 0.4j),
    FunctionKind.APPELL_F3: EvalPoint(-0.8, 0.7),
    FunctionKind.APPELL_F4: EvalPoint(0.25, 0.2),
}


# Points where, at orders 1-3, the stopping degree of block_exit_case's member
# falls strictly inside a turn: the long first turn for F2 and for F4 at
# order 1, a later CHAIN_BLOCK turn otherwise.
STOP_POINTS = {
    FunctionKind.GAUSS_2F1: EvalPoint(0.25 + 0.1j),
    FunctionKind.APPELL_F1: EvalPoint(0.25, 0.25),
    FunctionKind.APPELL_F2: EvalPoint(0.25, 0.2j),
    FunctionKind.APPELL_F3: EvalPoint(-0.2, 0.2),
    FunctionKind.APPELL_F4: EvalPoint(0.1, 0.06 - 0.03j),
}


def block_exit_case(kind, order, exit):
    """Inputs whose one member ends by ``exit``, and the degree it must end at."""
    rng = np.random.default_rng(8)
    matrices = {name: non_commuting_matrix(rng, order) for name in kind.parameter_names}
    if exit == "stop":
        return matrices, STOP_POINTS[kind], SeriesConfig()
    if exit == "cap":
        return matrices, EDGE_POINTS[kind], SeriesConfig(max_degree=21)
    if exit == "singular":
        # C + 10I is singular, so the diagonal of degree 11 needs its inverse.
        matrices["C"] = np.diag([-10.0] + [1.5] * (order - 1)).astype(complex)
        return matrices, EDGE_POINTS[kind], SeriesConfig()
    # Every scaled factor is I, so each term is its weight, and x^26 = 1e312.
    eye = np.eye(order, dtype=complex)
    point = EvalPoint(1e12, 0.1) if kind.is_two_variable else EvalPoint(1e12)
    return dict.fromkeys(matrices, eye), point, SeriesConfig(enforce_domain=False)


@pytest.mark.parametrize("exit", ["stop", "cap", "singular", "overflow"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_an_exit_inside_a_block_matches_a_per_degree_loop(kind, order, exit, monkeypatch):
    # At orders 1-3 the engine forms several diagonals per turn; a member
    # that ends inside a block reports what a loop over one diagonal at a
    # time reports: the same degree, text and shift.
    matrices, point, cfg = block_exit_case(kind, order, exit)
    turns = recorded_turns(monkeypatch)
    (outcome,) = evaluate_many([ParameterSet(kind, matrices)], point, cfg)
    if isinstance(outcome, SingularShift):
        got = (str(outcome), None, outcome.shift)
    elif isinstance(outcome, NotConverged):
        got = (str(outcome), outcome.report.degrees_used, None)
    else:
        got = (None, outcome.degrees_used, None)
    expected = per_degree_exit(
        PRINTED_TERMS[kind.value], matrices, point.x, point.y, cfg.tol, cfg.max_degree
    )
    assert got == expected
    text, degree, shift = expected
    label = "double series" if kind.is_two_variable else "series"
    verdicts = {
        "stop": text is None,
        "cap": text == f"{label} still moving at degree 21",
        "singular": shift == 11,
        "overflow": text == f"{label} overflowed at degree 26",
    }
    assert verdicts[exit]
    # Strictly inside the recorded turn that formed it: the member saw
    # earlier diagonals of that block, and later ones were formed and
    # discarded. The cap is the exception, as no turn reaches past it.
    lo, hi = turn_of(turns, degree or shift)
    assert lo < (degree or shift)
    if exit == "cap":
        assert degree == hi == cfg.max_degree
    else:
        assert (degree or shift) < hi


@pytest.mark.parametrize("order", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", [FunctionKind.GAUSS_2F1, FunctionKind.APPELL_F2])
def test_each_inverse_chain_grows_once_per_turn(kind, order, monkeypatch):
    # A turn of the degree loop reads each chain once, through the end of its
    # block, and a chain grows by at least CHAIN_BLOCK entries past the last it
    # holds. Up to order _ENTRIES_FIRST_ORDER the first turn runs to the
    # predicted stopping degree and each later one is CHAIN_BLOCK diagonals,
    # so every turn grows each inverse chain exactly once. Above it a turn is
    # one diagonal, and a growth covers CHAIN_BLOCK of them past entry 0.
    growths = {}
    shift_inverses = linalg.shift_inverses

    def counted_growth(base, shifts):
        growths[id(base)] = growths.get(id(base), 0) + 1
        return shift_inverses(base, shifts)

    monkeypatch.setattr(linalg, "shift_inverses", counted_growth)
    turns = recorded_turns(monkeypatch)
    rng = np.random.default_rng(5)
    names = kind.parameter_names
    params = ParameterSet(kind, {name: non_commuting_matrix(rng, order) for name in names})
    # A second member whose numerators are moved by 4I stops later, so the
    # batch runs past its first turn.
    slow = params.moved({name: 4 for name in kind.numerator_names})
    point = ORDER_POINTS[kind]
    degrees = max(report.degrees_used for report in evaluate_many([params, slow], point))
    # The turns cover the degrees 0..degrees in order, the last one holding
    # the last stopping degree.
    assert [lo for lo, _ in turns] == [0] + [hi + 1 for _, hi in turns[:-1]]
    assert turns[-1][0] <= degrees <= turns[-1][1]
    if order <= series._ENTRIES_FIRST_ORDER:
        predicted = series._predicted_degree(kind, point.x, point.y, DEFAULT_CONFIG.tol)
        assert turns[0] == (0, max(CHAIN_BLOCK - 1, predicted))
        assert all(hi - lo + 1 == CHAIN_BLOCK for lo, hi in turns[1:])
        assert len(turns) > 1
        expected = len(turns)
    else:
        assert len(turns) == degrees + 1
        expected = math.ceil(degrees / CHAIN_BLOCK)
    assert sorted(growths.values()) == [expected]


def outcome_bits(outcome):
    """What a batch member's outcome says, with every float as its bytes."""
    report = outcome if isinstance(outcome, series.EvalReport) else getattr(outcome, "report", None)
    text = str(outcome) if isinstance(outcome, Exception) else None
    if report is None:
        return type(outcome), text, getattr(outcome, "shift", None), None
    fields = (report.degrees_used, report.converged, report.value.tobytes(),
              np.float64(report.last_increment_norm).tobytes())
    return type(outcome), text, getattr(outcome, "shift", None), fields


@pytest.mark.parametrize("prediction", ["zero", "cap", "random"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_turn_sizing_never_changes_a_result(kind, order, prediction, monkeypatch):
    # The predicted stopping degree only sizes the first turn. Replaced by 0
    # (every turn CHAIN_BLOCK long), by max_degree (one turn as far as the
    # entry budget allows) or by a random degree per call, it leaves every
    # member's outcome bitwise as it was: converging, singular at C + 2I and
    # C + 10I, capped and overflowing members alike.
    rng = np.random.default_rng(31)
    names = kind.parameter_names
    plain = ParameterSet(kind, {name: non_commuting_matrix(rng, order) for name in names})
    point = ORDER_POINTS[kind]
    cfg = SeriesConfig(max_degree=evaluate(plain, point).degrees_used + 2)
    # Numerators moved by 4I keep the singular members moving past degree 11.
    moving = plain.moved({name: 4 for name in kind.numerator_names})
    singular = [
        ParameterSet(kind, {**moving.matrices, "C": np.diag([-k] + [1.5] * (order - 1)) + 0j})
        for k in (2.0, 10.0)
    ]
    members = [
        plain,
        plain.moved({"A": 1}),
        *singular,
        plain.moved({name: 8 for name in kind.numerator_names}),
        ParameterSet(kind, {**plain.matrices, "A": 1e100 * plain["A"]}),
    ]
    label = "double series" if kind.is_two_variable else "series"
    expected = [outcome_bits(outcome) for outcome in evaluate_many(members, point, cfg)]
    assert [bits[:3] for bits in expected[2:]] == [
        (SingularShift, "base + 2*I is singular", 3),
        (SingularShift, "base + 10*I is singular", 11),
        (NotConverged, f"{label} still moving at degree {cfg.max_degree}", None),
        (NotConverged, f"{label} overflowed at degree {expected[5][3][0]}", None),
    ]
    assert expected[0][3][1] and expected[1][3][1]
    draw, calls = random.Random(f"{kind.value}/{order}"), []

    def predicted(*args):
        calls.append(args)
        if prediction == "random":
            return draw.randint(0, cfg.max_degree)
        return {"zero": 0, "cap": cfg.max_degree}[prediction]

    monkeypatch.setattr(series, "_predicted_degree", predicted)
    for batch in (members, members[::-1], *[[member] for member in members]):
        got = [outcome_bits(outcome) for outcome in evaluate_many(batch, point, cfg)]
        assert got == [expected[members.index(member)] for member in batch]
    assert calls


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_lone_one_diagonal_turn_rounds_like_any_other(kind, monkeypatch):
    # A lone order-1 member whose last turn max_degree cuts to one diagonal
    # multiplies one-element arrays, which numpy rounds by a scalar path
    # unless every product keeps its operands' axes and none is in place.
    # Its report is still bitwise what it gives beside another member. The
    # two paths round apart for some values and not for others, so five
    # draws are each cut at the starts of the three turns after the first.
    # Numerators moved by 8I keep the members moving past those turns.
    point = ORDER_POINTS[kind]
    predicted = series._predicted_degree(kind, point.x, point.y, DEFAULT_CONFIG.tol)
    turns = recorded_turns(monkeypatch)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        names = kind.parameter_names
        members = [
            ParameterSet(kind, {name: non_commuting_matrix(rng, 1) for name in names})
            .moved({name: 8 for name in kind.numerator_names})
            for _ in range(2)
        ]
        for later in range(3):
            cfg = SeriesConfig(max_degree=max(CHAIN_BLOCK, predicted + 1) + later * CHAIN_BLOCK)
            (alone,) = evaluate_many(members[:1], point, cfg)
            assert turns[-1] == (cfg.max_degree, cfg.max_degree)
            assert outcome_bits(alone) == outcome_bits(evaluate_many(members, point, cfg)[0])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_batch_builds_one_product_chain_and_one_inverse_chain(kind, order, monkeypatch):
    # Every numerator's members share one product chain and every
    # denominator's one inverse chain, so a turn pays each chain's fixed
    # growth cost once rather than once per parameter.
    builds = {"for_products": [], "for_inverses": []}
    for name, bases in builds.items():
        def counted(base, build=getattr(PochhammerChain, name), bases=bases):
            bases.append(len(base))
            return build(base)

        monkeypatch.setattr(PochhammerChain, name, counted)
    rng = np.random.default_rng(11)
    members = [
        ParameterSet(kind, {name: non_commuting_matrix(rng, order) for name in kind.parameter_names})
        for _ in range(3)
    ]
    outcomes = evaluate_many(members, ORDER_POINTS[kind])
    assert all(report.converged for report in outcomes)
    denominators = len(kind.denominator_names)
    numerators = len(kind.parameter_names) - denominators
    assert builds == {"for_products": [numerators * 3], "for_inverses": [denominators * 3]}

def test_batch_shares_one_kind_one_order_and_the_point_checks():
    gauss = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    assert evaluate_many([], EvalPoint(0.1)) == []
    with pytest.raises(ValueError):
        evaluate_many([gauss, scalar_params(FunctionKind.APPELL_F4, {
            "A": 1.0, "B": 1.0, "C": 2.0, "Cp": 2.0})], EvalPoint(0.1))
    wide = ParameterSet(FunctionKind.GAUSS_2F1, {n: np.eye(2, dtype=complex) for n in "ABC"})
    with pytest.raises(DimensionMismatch):
        evaluate_many([gauss, wide], EvalPoint(0.1))
    outside = evaluate_many([gauss, gauss.moved({"A": 1})], EvalPoint(1.0))
    assert [type(outcome) for outcome in outside] == [DomainViolation] * 2


F2_EDGE = {"A": 1.3, "B": 0.7, "Bp": 0.9, "C": 1.1, "Cp": 1.6}


@pytest.mark.parametrize(
    "kind, values, point",
    [
        (FunctionKind.GAUSS_2F1, {"A": 1.3, "B": 2.7, "C": 1.1}, EvalPoint(0.9)),
        (FunctionKind.GAUSS_2F1, {"A": 0.5, "B": 0.7, "C": 1.1}, EvalPoint(0.9)),
        (FunctionKind.APPELL_F2, F2_EDGE, EvalPoint(0.5, 0.4)),
        (FunctionKind.APPELL_F2, F2_EDGE, EvalPoint(0.8, 0.15)),
    ],
)
def test_near_the_region_edge_matches_mpmath(kind, values, point):
    # Unscaled chains overflowed here near degree 100, long before convergence.
    mpmath = pytest.importorskip("mpmath")
    report = evaluate(scalar_params(kind, values), point)
    with mpmath.workdps(30):
        if kind is FunctionKind.GAUSS_2F1:
            expected = complex(mpmath.hyp2f1(*values.values(), point.x))
        else:
            expected = complex(mpmath.appellf2(*values.values(), point.x, point.y))
    assert report.converged
    assert abs(report.value[0, 0] - expected) <= 1e-10 * abs(expected)


def test_an_overflowing_member_leaves_the_batch_alone():
    # x^N with x = 50 leaves the double range near degree 182; 2F1(0, I; I)
    # stops after the three zero diagonals 1 to 3.
    eye = np.eye(2, dtype=complex)
    growing = ParameterSet(FunctionKind.GAUSS_2F1, {"A": eye, "B": eye, "C": eye})
    constant = ParameterSet(FunctionKind.GAUSS_2F1, {"A": 0 * eye, "B": eye, "C": eye})
    point, cfg = EvalPoint(50.0), SeriesConfig(enforce_domain=False)
    overflowed, clean = evaluate_many([growing, constant], point, cfg)
    assert isinstance(overflowed, NotConverged)
    degree = re.fullmatch(r"series overflowed at degree (\d+)", str(overflowed))
    assert degree and overflowed.report.degrees_used == int(degree[1])
    assert not overflowed.report.converged
    alone = raised(growing, point, cfg)
    assert (type(alone), str(alone)) == (NotConverged, str(overflowed))
    assert alone.report.degrees_used == overflowed.report.degrees_used
    assert np.array_equal(alone.report.value, overflowed.report.value, equal_nan=True)
    assert clean.converged and clean.degrees_used == 3
    assert_same_report(clean, evaluate(constant, point, cfg))


@pytest.mark.parametrize(
    "kind, values, point",
    [
        (FunctionKind.GAUSS_2F1, {"A": 80, "B": 80, "C": 1}, EvalPoint(0.9)),
        (FunctionKind.APPELL_F1, {"A": 80, "B": 80, "Bp": 1, "C": 1}, EvalPoint(0.9, 0.0)),
        (FunctionKind.GAUSS_2F1, {"A": 150, "B": 150, "C": 1}, EvalPoint(0.5)),
        (FunctionKind.GAUSS_2F1, {"A": 100, "B": 100, "C": 1}, EvalPoint(0.9)),
        (FunctionKind.GAUSS_2F1, {"A": 60, "B": 60, "C": 1}, EvalPoint(0.9)),
    ],
    ids=["2F1-80-0.9", "F1-80-0.9", "2F1-150-0.5", "2F1-100-0.9", "2F1-60-0.9"],
)
def test_values_past_the_square_of_the_double_range_stop_honestly(kind, values, point):
    # The squares in a Frobenius norm overflow once an entry passes about
    # 1.34e154, so the stopping rule must not read an infinite partial-sum
    # norm as a threshold every increment is below.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        expected = complex(mpmath.hyp2f1(values["A"], values["B"], values["C"], point.x))
    try:
        report = evaluate(scalar_params(kind, values), point)
    except NotConverged:
        return
    assert abs(report.value[0, 0] - expected) <= 10 * DEFAULT_CONFIG.tol * abs(expected)


def test_a_value_past_the_square_of_the_double_range_is_summed():
    # 2F1(80, 80; 1; 0.9) = 3.812e203. The stopping rule underestimates this
    # slow tail (about 20 tol), but the value is the right one.
    mpmath = pytest.importorskip("mpmath")
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 80, "B": 80, "C": 1})
    report = evaluate(params, EvalPoint(0.9), SeriesConfig(max_degree=5000))
    expected = complex(mpmath.hyp2f1(80, 80, 1, 0.9))
    assert report.converged
    assert abs(report.value[0, 0] - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize(
    "kind,name,point",
    [
        (FunctionKind.GAUSS_2F1, "C", EvalPoint(0.0)),
        (FunctionKind.APPELL_F2, "Cp", EvalPoint(0.1, 0.0)),
    ],
)
def test_singular_member_is_reported_under_a_zero_weight(kind, name, point):
    # Every term that reads past C + 2I has weight zero here; 0 * NaN is NaN,
    # so the member still leaves with the singular shift it raises alone.
    names = kind.parameter_names
    plain = ParameterSet(kind, {p: np.diag([1.5, 2.0]).astype(complex) for p in names})
    singular = ParameterSet(kind, {**plain.matrices, name: np.diag([-2.0, 1.0]).astype(complex)})
    clean, failed = evaluate_many([plain, singular], point)
    alone = raised(singular, point, SeriesConfig())
    assert isinstance(failed, SingularShift) and isinstance(alone, SingularShift)
    assert str(failed) == str(alone) == "base + 2*I is singular"
    assert failed.shift == alone.shift == 3
    assert clean.converged
    assert_same_report(clean, evaluate(plain, point))


def test_memory_follows_the_degree_reached_not_max_degree():
    params = scalar_params(FunctionKind.GAUSS_2F1, {"A": 1.0, "B": 1.0, "C": 2.0})
    tracemalloc.start()
    try:
        report = evaluate(params, EvalPoint(0.5), SeriesConfig(max_degree=10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged and report.degrees_used < 100
    assert abs(report.value[0, 0] - TWO_LN_TWO) <= 1e-10
    assert peak < 1_000_000
