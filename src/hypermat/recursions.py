"""Catalog of shift recursions for the matrix hypergeometric functions.

Every entry links a function kind with one shifted parameter and a
right-hand-side recipe expressing the shifted function value through
unshifted or singly shifted values. Four recipe shapes occur:

* contiguous-single-step: one parameter moved by a single I,
* telescoping-sum: the shifted value as the base value plus a sum of s
  singly incremented inner values,
* binomial-sum / multinomial-sum: the shifted value as a weighted sum over
  fully shifted inner values with binomial or trinomial weights,
* c-shift: a denominator parameter lowered by sI, paid for with products of
  two shifted resolvent factors per step.

Matrix coefficients multiply on the side on which the identity places them;
with non-commuting parameters the side matters, so the recipes below never
move a factor across a bracket. Identities for B (and B', for F3) shifts are
realized by transposing the parameter set into the corresponding A-shift
identity; their hypotheses are transposed the same way.

Each identity is verified numerically: both sides are evaluated through the
series engine and compared in the scaled Frobenius metric
||lhs - rhs|| / (1 + ||lhs||). Campaigns draw commuting parameter families
and in-region points deterministically from a seed.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass

from . import calculus, linalg
from .calculus import CommutingFamily, multinomial, random_commuting_family
from .errors import (
    GenerationFailed,
    HypermatError,
    HypothesisViolated,
    UnknownIdentity,
)
from .linalg import Matrix
from .series import (
    DEFAULT_CONFIG,
    EvalPoint,
    EvalReport,
    FunctionKind,
    ParameterSet,
    SeriesConfig,
    evaluate,
)

#: Commutation defect above this multiple of the operand norms fails a
#: hypothesis check.
COMMUTATION_RTOL = 1e-10

#: Campaign pass threshold on the scaled residual.
DEFAULT_CAMPAIGN_TOL = 1e-8

#: Sampled spectra keep this distance from every integer shift that a
#: decrement identity must invert through.
_SHIFT_CLEARANCE = 0.1

DIRECTION_INCREMENT = "increment"
DIRECTION_DECREMENT = "decrement"

FORM_CONTIGUOUS = "contiguous-single-step"
FORM_TELESCOPING = "telescoping-sum"
FORM_BINOMIAL = "binomial-sum"
FORM_MULTINOMIAL = "multinomial-sum"
FORM_C_SHIFT = "c-shift"


@dataclass(frozen=True)
class IdentityDescriptor:
    """One catalogued recursion: its shape, hypotheses and RHS recipe.

    ``commuting_pairs`` lists the parameter pairs that must commute;
    invertibility requirements follow from ``shifted_parameter`` and
    ``direction`` (all shifts by 0..s of the moved parameter, in the moving
    direction). ``formula`` is a plain-text rendering of the identity used
    in listings. ``swap_of``/``swap_map`` mark entries realized by argument
    transposition of another entry. Contiguous entries carry
    ``fixed_shift = 1``; campaign shift counts do not apply to them.
    """

    id: str
    kind: FunctionKind
    shifted_parameter: str
    direction: str
    form: str
    commuting_pairs: tuple[tuple[str, str], ...]
    formula: str
    swap_of: str | None = None
    swap_map: tuple[tuple[str, str], ...] | None = None
    fixed_shift: int | None = None

    def effective_shift(self, s: int) -> int:
        """The shift count actually applied; contiguous entries cap it at 1."""
        if self.fixed_shift is None:
            return s
        return min(self.fixed_shift, s)


@dataclass(eq=False)
class VerificationReport:
    """Outcome of one LHS-vs-RHS comparison."""

    identity_id: str
    s: int
    seed: int
    order: int
    residual: float
    passed: bool
    lhs_report: EvalReport | None = None
    rhs_degrees: int = 0
    error: str | None = None


class _SeriesProbe:
    """Evaluate inner series while recording the deepest truncation degree."""

    def __init__(self, point: EvalPoint, cfg: SeriesConfig):
        self.point = point
        self.cfg = cfg
        self.max_degrees = 0

    def __call__(self, params: ParameterSet) -> Matrix:
        report = evaluate(params, self.point, self.cfg)
        self.max_degrees = max(self.max_degrees, report.degrees_used)
        return report.value


def _inv(m: Matrix) -> Matrix:
    return linalg.inverse(m)


def _poch(m: Matrix, k: int) -> Matrix:
    return calculus.pochhammer(m, k)


def _poch_inv(m: Matrix, k: int) -> Matrix:
    return calculus.pochhammer_inverse(m, k)


# ---------------------------------------------------------------------------
# RHS recipes. Argument order inside every expression mirrors the identity
# it implements; resist any urge to "simplify" across matrix factors.
# ---------------------------------------------------------------------------


def _rhs_g_inc_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(p.shifted("A", k).shifted("B", 1).shifted("C", 1))
    return base + pt.x * (acc @ p["B"] @ _inv(p["C"]))


def _rhs_g_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc = linalg.zeros(p.order)
    for k in range(0, s):
        acc = acc + ev(p.shifted("A", -k).shifted("B", 1).shifted("C", 1))
    return base - pt.x * (acc @ p["B"] @ _inv(p["C"]))


def _rhs_g_inc_binom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("A", k).shifted("B", k).shifted("C", k))
        weight = math.comb(s, k) * pt.x**k
        total = total + weight * (inner @ _poch(p["B"], k) @ _poch_inv(p["C"], k))
    return total


def _rhs_g_dec_binom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("B", k).shifted("C", k))
        weight = math.comb(s, k) * (-pt.x) ** k
        total = total + weight * (inner @ _poch(p["B"], k) @ _poch_inv(p["C"], k))
    return total


def _rhs_g_c_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    eye = linalg.identity(p.order)
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        inner = ev(p.shifted("A", 1).shifted("B", 1).shifted("C", 2 - k))
        acc = acc + inner @ p["B"] @ _inv(p["C"] - k * eye) @ _inv(
            p["C"] - (k - 1) * eye
        )
    return base + pt.x * (p["A"] @ acc)


def _rhs_g_inc_contig(p, s, pt, ev):
    if s == 0:
        return ev(p)
    inner = ev(p.shifted("A", 1).shifted("B", 1).shifted("C", 1))
    return ev(p) + pt.x * (inner @ p["B"] @ _inv(p["C"]))


def _rhs_g_dec_contig(p, s, pt, ev):
    if s == 0:
        return ev(p)
    inner = ev(p.shifted("B", 1).shifted("C", 1))
    return ev(p) - pt.x * (inner @ p["B"] @ _inv(p["C"]))


def _rhs_g_c_dec_contig(p, s, pt, ev):
    if s == 0:
        return ev(p)
    eye = linalg.identity(p.order)
    inner = ev(p.shifted("A", 1).shifted("B", 1).shifted("C", 1))
    return ev(p) + pt.x * (
        p["A"] @ inner @ p["B"] @ _inv(p["C"]) @ _inv(p["C"] - eye)
    )


def _rhs_f1_inc_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    c_inv = _inv(p["C"])
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc_x = acc_x + ev(p.shifted("A", k).shifted("B", 1).shifted("C", 1))
        acc_y = acc_y + ev(p.shifted("A", k).shifted("Bp", 1).shifted("C", 1))
    return (
        base
        + pt.x * (p["B"] @ acc_x @ c_inv)
        + pt.y * (acc_y @ p["Bp"] @ c_inv)
    )


def _rhs_f1_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    c_inv = _inv(p["C"])
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(0, s):
        acc_x = acc_x + ev(p.shifted("A", -k).shifted("B", 1).shifted("C", 1))
        acc_y = acc_y + ev(p.shifted("A", -k).shifted("Bp", 1).shifted("C", 1))
    return (
        base
        - pt.x * (p["B"] @ acc_x @ c_inv)
        - pt.y * (acc_y @ p["Bp"] @ c_inv)
    )


def _rhs_f1_inc_multinom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k1 in range(0, s + 1):
        for k2 in range(0, s - k1 + 1):
            inner = ev(
                p.shifted("A", k1 + k2)
                .shifted("B", k1)
                .shifted("Bp", k2)
                .shifted("C", k1 + k2)
            )
            weight = multinomial(s, k1, k2) * pt.x**k1 * pt.y**k2
            total = total + weight * (
                _poch(p["B"], k1)
                @ inner
                @ _poch(p["Bp"], k2)
                @ _poch_inv(p["C"], k1 + k2)
            )
    return total


def _rhs_f1_dec_multinom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k1 in range(0, s + 1):
        for k2 in range(0, s - k1 + 1):
            inner = ev(
                p.shifted("B", k1).shifted("Bp", k2).shifted("C", k1 + k2)
            )
            weight = multinomial(s, k1, k2) * (-pt.x) ** k1 * (-pt.y) ** k2
            total = total + weight * (
                _poch(p["B"], k1)
                @ inner
                @ _poch(p["Bp"], k2)
                @ _poch_inv(p["C"], k1 + k2)
            )
    return total


def _numerator_shift_sum(p, s, pt, ev, name, var, denominator):
    """Telescoping shift of B or B' for F1/F2: the denominator partner and
    the series variable change with the shifted slot, the shape does not."""
    base = ev(p)
    if s == 0:
        return base
    z = pt.x if var == "x" else pt.y
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(p.shifted("A", 1).shifted(name, k).shifted(denominator, 1))
    return base + z * (p["A"] @ acc @ _inv(p[denominator]))


def _numerator_shift_sum_dec(p, s, pt, ev, name, var, denominator):
    base = ev(p)
    if s == 0:
        return base
    z = pt.x if var == "x" else pt.y
    acc = linalg.zeros(p.order)
    for k in range(0, s):
        acc = acc + ev(p.shifted("A", 1).shifted(name, -k).shifted(denominator, 1))
    return base - z * (p["A"] @ acc @ _inv(p[denominator]))


def _numerator_shift_binom(p, s, pt, ev, name, var, denominator):
    z = pt.x if var == "x" else pt.y
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("A", k).shifted(name, k).shifted(denominator, k))
        weight = math.comb(s, k) * z**k
        total = total + weight * (
            _poch(p["A"], k) @ inner @ _poch_inv(p[denominator], k)
        )
    return total


def _numerator_shift_binom_dec(p, s, pt, ev, name, var, denominator):
    # The inner value keeps the lowered parameter at its base position; only
    # A and the denominator move.
    z = pt.x if var == "x" else pt.y
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("A", k).shifted(denominator, k))
        weight = math.comb(s, k) * (-z) ** k
        total = total + weight * (
            _poch(p["A"], k) @ inner @ _poch_inv(p[denominator], k)
        )
    return total


def _rhs_f1_c_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    eye = linalg.identity(p.order)
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(1, s + 1):
        pair = _inv(p["C"] - k * eye) @ _inv(p["C"] - (k - 1) * eye)
        acc_x = acc_x + ev(
            p.shifted("A", 1).shifted("B", 1).shifted("C", 2 - k)
        ) @ pair
        acc_y = acc_y + ev(
            p.shifted("A", 1).shifted("Bp", 1).shifted("C", 2 - k)
        ) @ p["Bp"] @ pair
    return base + pt.x * (p["A"] @ p["B"] @ acc_x) + pt.y * (p["A"] @ acc_y)


def _rhs_f1_inc_contig(p, s, pt, ev):
    return _rhs_f1_inc_sum(p, min(s, 1), pt, ev)


def _rhs_f1_dec_contig(p, s, pt, ev):
    return _rhs_f1_dec_sum(p, min(s, 1), pt, ev)


def _rhs_f1_c_dec_contig(p, s, pt, ev):
    if s == 0:
        return ev(p)
    eye = linalg.identity(p.order)
    pair = _inv(p["C"]) @ _inv(p["C"] - eye)
    inner_x = ev(p.shifted("A", 1).shifted("B", 1).shifted("C", 1))
    inner_y = ev(p.shifted("A", 1).shifted("Bp", 1).shifted("C", 1))
    return (
        ev(p)
        + pt.x * (p["A"] @ p["B"] @ inner_x @ pair)
        + pt.y * (p["A"] @ inner_y @ p["Bp"] @ pair)
    )


def _rhs_f2_inc_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc_x = acc_x + ev(p.shifted("A", k).shifted("B", 1).shifted("C", 1))
        acc_y = acc_y + ev(p.shifted("A", k).shifted("Bp", 1).shifted("Cp", 1))
    return (
        base
        + pt.x * (p["B"] @ acc_x @ _inv(p["C"]))
        + pt.y * (acc_y @ p["Bp"] @ _inv(p["Cp"]))
    )


def _rhs_f2_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(0, s):
        acc_x = acc_x + ev(p.shifted("A", -k).shifted("B", 1).shifted("C", 1))
        acc_y = acc_y + ev(p.shifted("A", -k).shifted("Bp", 1).shifted("Cp", 1))
    return (
        base
        - pt.x * (p["B"] @ acc_x @ _inv(p["C"]))
        - pt.y * (acc_y @ p["Bp"] @ _inv(p["Cp"]))
    )


def _rhs_f2_inc_multinom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k1 in range(0, s + 1):
        for k2 in range(0, s - k1 + 1):
            inner = ev(
                p.shifted("A", k1 + k2)
                .shifted("B", k1)
                .shifted("Bp", k2)
                .shifted("C", k1)
                .shifted("Cp", k2)
            )
            weight = multinomial(s, k1, k2) * pt.x**k1 * pt.y**k2
            total = total + weight * (
                _poch(p["B"], k1)
                @ inner
                @ _poch(p["Bp"], k2)
                @ _poch_inv(p["C"], k1)
                @ _poch_inv(p["Cp"], k2)
            )
    return total


def _rhs_f2_dec_multinom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k1 in range(0, s + 1):
        for k2 in range(0, s - k1 + 1):
            inner = ev(
                p.shifted("B", k1).shifted("Bp", k2).shifted("C", k1).shifted("Cp", k2)
            )
            weight = multinomial(s, k1, k2) * (-pt.x) ** k1 * (-pt.y) ** k2
            total = total + weight * (
                _poch(p["B"], k1)
                @ inner
                @ _poch(p["Bp"], k2)
                @ _poch_inv(p["C"], k1)
                @ _poch_inv(p["Cp"], k2)
            )
    return total


def _rhs_f2_c_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    eye = linalg.identity(p.order)
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(
            p.shifted("A", 1).shifted("B", 1).shifted("C", 2 - k)
        ) @ _inv(p["C"] - k * eye) @ _inv(p["C"] - (k - 1) * eye)
    return base + pt.x * (p["A"] @ p["B"] @ acc)


def _rhs_f2_cp_dec_sum(p, s, pt, ev):
    # The B' coefficient trails the whole bracket here.
    base = ev(p)
    if s == 0:
        return base
    eye = linalg.identity(p.order)
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(
            p.shifted("A", 1).shifted("Bp", 1).shifted("Cp", 2 - k)
        ) @ _inv(p["Cp"] - k * eye) @ _inv(p["Cp"] - (k - 1) * eye)
    return base + pt.y * (p["A"] @ acc @ p["Bp"])


def _rhs_f3_a_inc_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(p.shifted("A", k).shifted("B", 1).shifted("C", 1))
    return base + pt.x * (p["B"] @ acc @ _inv(p["C"]))


def _rhs_f3_ap_inc_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(p.shifted("Ap", k).shifted("Bp", 1).shifted("C", 1))
    return base + pt.y * (acc @ p["Bp"] @ _inv(p["C"]))


def _rhs_f3_a_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc = linalg.zeros(p.order)
    for k in range(0, s):
        acc = acc + ev(p.shifted("A", -k).shifted("B", 1).shifted("C", 1))
    return base - pt.x * (p["B"] @ acc @ _inv(p["C"]))


def _rhs_f3_ap_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc = linalg.zeros(p.order)
    for k in range(0, s):
        acc = acc + ev(p.shifted("Ap", -k).shifted("Bp", 1).shifted("C", 1))
    return base - pt.y * (acc @ p["Bp"] @ _inv(p["C"]))


def _rhs_f3_a_inc_binom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("A", k).shifted("B", k).shifted("C", k))
        weight = math.comb(s, k) * pt.x**k
        total = total + weight * (
            _poch(p["B"], k) @ inner @ _poch_inv(p["C"], k)
        )
    return total


def _rhs_f3_ap_inc_binom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("Ap", k).shifted("Bp", k).shifted("C", k))
        weight = math.comb(s, k) * pt.y**k
        total = total + weight * (
            inner @ _poch(p["Bp"], k) @ _poch_inv(p["C"], k)
        )
    return total


def _rhs_f3_a_dec_binom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("B", k).shifted("C", k))
        weight = math.comb(s, k) * (-pt.x) ** k
        total = total + weight * (
            _poch(p["B"], k) @ inner @ _poch_inv(p["C"], k)
        )
    return total


def _rhs_f3_ap_dec_binom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k in range(0, s + 1):
        inner = ev(p.shifted("Bp", k).shifted("C", k))
        weight = math.comb(s, k) * (-pt.y) ** k
        total = total + weight * (
            inner @ _poch(p["Bp"], k) @ _poch_inv(p["C"], k)
        )
    return total


def _rhs_f3_c_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    eye = linalg.identity(p.order)
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(1, s + 1):
        pair = _inv(p["C"] - k * eye) @ _inv(p["C"] - (k - 1) * eye)
        acc_x = acc_x + ev(
            p.shifted("A", 1).shifted("B", 1).shifted("C", 2 - k)
        ) @ pair
        acc_y = acc_y + ev(
            p.shifted("Ap", 1).shifted("Bp", 1).shifted("C", 2 - k)
        ) @ pair
    return (
        base
        + pt.x * (p["A"] @ p["B"] @ acc_x)
        + pt.y * (p["Ap"] @ acc_y @ p["Bp"])
    )


def _rhs_f4_inc_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc_x = acc_x + ev(p.shifted("A", k).shifted("B", 1).shifted("C", 1))
        acc_y = acc_y + ev(p.shifted("A", k).shifted("B", 1).shifted("Cp", 1))
    return (
        base
        + pt.x * (p["B"] @ acc_x @ _inv(p["C"]))
        + pt.y * (p["B"] @ acc_y @ _inv(p["Cp"]))
    )


def _rhs_f4_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    acc_x = linalg.zeros(p.order)
    acc_y = linalg.zeros(p.order)
    for k in range(0, s):
        acc_x = acc_x + ev(p.shifted("A", -k).shifted("B", 1).shifted("C", 1))
        acc_y = acc_y + ev(p.shifted("A", -k).shifted("B", 1).shifted("Cp", 1))
    return (
        base
        - pt.x * (p["B"] @ acc_x @ _inv(p["C"]))
        - pt.y * (p["B"] @ acc_y @ _inv(p["Cp"]))
    )


def _rhs_f4_inc_multinom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k1 in range(0, s + 1):
        for k2 in range(0, s - k1 + 1):
            inner = ev(
                p.shifted("A", k1 + k2)
                .shifted("B", k1 + k2)
                .shifted("C", k1)
                .shifted("Cp", k2)
            )
            weight = multinomial(s, k1, k2) * pt.x**k1 * pt.y**k2
            total = total + weight * (
                _poch(p["B"], k1 + k2)
                @ inner
                @ _poch_inv(p["C"], k1)
                @ _poch_inv(p["Cp"], k2)
            )
    return total


def _rhs_f4_dec_multinom(p, s, pt, ev):
    total = linalg.zeros(p.order)
    for k1 in range(0, s + 1):
        for k2 in range(0, s - k1 + 1):
            inner = ev(
                p.shifted("B", k1 + k2).shifted("C", k1).shifted("Cp", k2)
            )
            weight = multinomial(s, k1, k2) * (-pt.x) ** k1 * (-pt.y) ** k2
            total = total + weight * (
                _poch(p["B"], k1 + k2)
                @ inner
                @ _poch_inv(p["C"], k1)
                @ _poch_inv(p["Cp"], k2)
            )
    return total


def _rhs_f4_c_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    eye = linalg.identity(p.order)
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(
            p.shifted("A", 1).shifted("B", 1).shifted("C", 2 - k)
        ) @ _inv(p["C"] - k * eye) @ _inv(p["C"] - (k - 1) * eye)
    return base + pt.x * (p["A"] @ p["B"] @ acc)


def _rhs_f4_cp_dec_sum(p, s, pt, ev):
    base = ev(p)
    if s == 0:
        return base
    eye = linalg.identity(p.order)
    acc = linalg.zeros(p.order)
    for k in range(1, s + 1):
        acc = acc + ev(
            p.shifted("A", 1).shifted("B", 1).shifted("Cp", 2 - k)
        ) @ _inv(p["Cp"] - k * eye) @ _inv(p["Cp"] - (k - 1) * eye)
    return base + pt.y * (p["A"] @ p["B"] @ acc)


def _rhs_f1_b_inc_sum(p, s, pt, ev):
    return _numerator_shift_sum(p, s, pt, ev, "B", "x", "C")


def _rhs_f1_b_dec_sum(p, s, pt, ev):
    return _numerator_shift_sum_dec(p, s, pt, ev, "B", "x", "C")


def _rhs_f1_bp_inc_sum(p, s, pt, ev):
    return _numerator_shift_sum(p, s, pt, ev, "Bp", "y", "C")


def _rhs_f1_bp_dec_sum(p, s, pt, ev):
    return _numerator_shift_sum_dec(p, s, pt, ev, "Bp", "y", "C")


def _rhs_f1_b_inc_binom(p, s, pt, ev):
    return _numerator_shift_binom(p, s, pt, ev, "B", "x", "C")


def _rhs_f1_b_dec_binom(p, s, pt, ev):
    return _numerator_shift_binom_dec(p, s, pt, ev, "B", "x", "C")


def _rhs_f1_bp_inc_binom(p, s, pt, ev):
    return _numerator_shift_binom(p, s, pt, ev, "Bp", "y", "C")


def _rhs_f1_bp_dec_binom(p, s, pt, ev):
    return _numerator_shift_binom_dec(p, s, pt, ev, "Bp", "y", "C")


def _rhs_f2_b_inc_sum(p, s, pt, ev):
    return _numerator_shift_sum(p, s, pt, ev, "B", "x", "C")


def _rhs_f2_b_dec_sum(p, s, pt, ev):
    return _numerator_shift_sum_dec(p, s, pt, ev, "B", "x", "C")


def _rhs_f2_bp_inc_sum(p, s, pt, ev):
    return _numerator_shift_sum(p, s, pt, ev, "Bp", "y", "Cp")


def _rhs_f2_bp_dec_sum(p, s, pt, ev):
    return _numerator_shift_sum_dec(p, s, pt, ev, "Bp", "y", "Cp")


def _rhs_f2_b_inc_binom(p, s, pt, ev):
    return _numerator_shift_binom(p, s, pt, ev, "B", "x", "C")


def _rhs_f2_b_dec_binom(p, s, pt, ev):
    return _numerator_shift_binom_dec(p, s, pt, ev, "B", "x", "C")


def _rhs_f2_bp_inc_binom(p, s, pt, ev):
    return _numerator_shift_binom(p, s, pt, ev, "Bp", "y", "Cp")


def _rhs_f2_bp_dec_binom(p, s, pt, ev):
    return _numerator_shift_binom_dec(p, s, pt, ev, "Bp", "y", "Cp")


_RECIPES = {
    "G-A+s-sum": _rhs_g_inc_sum,
    "G-A-s-sum": _rhs_g_dec_sum,
    "G-A+s-binom": _rhs_g_inc_binom,
    "G-A-s-binom": _rhs_g_dec_binom,
    "G-C-s-sum": _rhs_g_c_dec_sum,
    "G-A+1-contig": _rhs_g_inc_contig,
    "G-A-1-contig": _rhs_g_dec_contig,
    "G-C-1-contig": _rhs_g_c_dec_contig,
    "F1-A+s-sum": _rhs_f1_inc_sum,
    "F1-A-s-sum": _rhs_f1_dec_sum,
    "F1-A+s-multinom": _rhs_f1_inc_multinom,
    "F1-A-s-multinom": _rhs_f1_dec_multinom,
    "F1-A+1-contig": _rhs_f1_inc_contig,
    "F1-A-1-contig": _rhs_f1_dec_contig,
    "F1-B+s-sum": _rhs_f1_b_inc_sum,
    "F1-B-s-sum": _rhs_f1_b_dec_sum,
    "F1-Bp+s-sum": _rhs_f1_bp_inc_sum,
    "F1-Bp-s-sum": _rhs_f1_bp_dec_sum,
    "F1-B+s-binom": _rhs_f1_b_inc_binom,
    "F1-B-s-binom": _rhs_f1_b_dec_binom,
    "F1-Bp+s-binom": _rhs_f1_bp_inc_binom,
    "F1-Bp-s-binom": _rhs_f1_bp_dec_binom,
    "F1-C-1-contig": _rhs_f1_c_dec_contig,
    "F1-C-s-sum": _rhs_f1_c_dec_sum,
    "F2-A+s-sum": _rhs_f2_inc_sum,
    "F2-A-s-sum": _rhs_f2_dec_sum,
    "F2-A+s-multinom": _rhs_f2_inc_multinom,
    "F2-A-s-multinom": _rhs_f2_dec_multinom,
    "F2-B+s-sum": _rhs_f2_b_inc_sum,
    "F2-B-s-sum": _rhs_f2_b_dec_sum,
    "F2-Bp+s-sum": _rhs_f2_bp_inc_sum,
    "F2-Bp-s-sum": _rhs_f2_bp_dec_sum,
    "F2-B+s-binom": _rhs_f2_b_inc_binom,
    "F2-B-s-binom": _rhs_f2_b_dec_binom,
    "F2-Bp+s-binom": _rhs_f2_bp_inc_binom,
    "F2-Bp-s-binom": _rhs_f2_bp_dec_binom,
    "F2-C-s-sum": _rhs_f2_c_dec_sum,
    "F2-Cp-s-sum": _rhs_f2_cp_dec_sum,
    "F3-A+s-sum": _rhs_f3_a_inc_sum,
    "F3-A-s-sum": _rhs_f3_a_dec_sum,
    "F3-Ap+s-sum": _rhs_f3_ap_inc_sum,
    "F3-Ap-s-sum": _rhs_f3_ap_dec_sum,
    "F3-A+s-binom": _rhs_f3_a_inc_binom,
    "F3-A-s-binom": _rhs_f3_a_dec_binom,
    "F3-Ap+s-binom": _rhs_f3_ap_inc_binom,
    "F3-Ap-s-binom": _rhs_f3_ap_dec_binom,
    "F3-C-s-sum": _rhs_f3_c_dec_sum,
    "F4-A+s-sum": _rhs_f4_inc_sum,
    "F4-A-s-sum": _rhs_f4_dec_sum,
    "F4-A+s-multinom": _rhs_f4_inc_multinom,
    "F4-A-s-multinom": _rhs_f4_dec_multinom,
    "F4-C-s-sum": _rhs_f4_c_dec_sum,
    "F4-Cp-s-sum": _rhs_f4_cp_dec_sum,
}


def _descriptor(
    identity_id,
    kind,
    shifted,
    direction,
    form,
    pairs,
    formula,
    swap_of=None,
    swap_map=None,
    fixed_shift=None,
):
    return IdentityDescriptor(
        id=identity_id,
        kind=kind,
        shifted_parameter=shifted,
        direction=direction,
        form=form,
        commuting_pairs=tuple(tuple(pair) for pair in pairs),
        formula=formula,
        swap_of=swap_of,
        swap_map=tuple(swap_map.items()) if swap_map else None,
        fixed_shift=fixed_shift,
    )


_G = FunctionKind.GAUSS_2F1
_F1 = FunctionKind.APPELL_F1
_F2 = FunctionKind.APPELL_F2
_F3 = FunctionKind.APPELL_F3
_F4 = FunctionKind.APPELL_F4

_GAUSS_SWAP = {"A": "B", "B": "A"}
_F3_SWAP = {"A": "B", "B": "A", "Ap": "Bp", "Bp": "Ap"}
_F4_SWAP = {"A": "B", "B": "A"}


def _build_catalog() -> tuple[IdentityDescriptor, ...]:
    entries = [
        _descriptor(
            "G-A+1-contig", _G, "A", DIRECTION_INCREMENT, FORM_CONTIGUOUS,
            [("B", "C")],
            "F(A+I,B;C;x) = F(A,B;C;x) + x*[F(A+I,B+I;C+I;x)]*B*C^-1",
            fixed_shift=1,
        ),
        _descriptor(
            "G-A-1-contig", _G, "A", DIRECTION_DECREMENT, FORM_CONTIGUOUS,
            [("B", "C")],
            "F(A-I,B;C;x) = F(A,B;C;x) - x*[F(A,B+I;C+I;x)]*B*C^-1",
            fixed_shift=1,
        ),
        _descriptor(
            "G-A+s-sum", _G, "A", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("B", "C")],
            "F(A+sI,B;C;x) = F(A,B;C;x) + x*[sum_{k=1..s} F(A+kI,B+I;C+I;x)]*B*C^-1",
        ),
        _descriptor(
            "G-A-s-sum", _G, "A", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("B", "C")],
            "F(A-sI,B;C;x) = F(A,B;C;x) - x*[sum_{k=0..s-1} F(A-kI,B+I;C+I;x)]*B*C^-1",
        ),
        _descriptor(
            "G-A+s-binom", _G, "A", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("B", "C")],
            "F(A+sI,B;C;x) = sum_{k=0..s} C(s,k) x^k [F(A+kI,B+kI;C+kI;x)]*(B)_k*(C)_k^-1",
        ),
        _descriptor(
            "G-A-s-binom", _G, "A", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("B", "C")],
            "F(A-sI,B;C;x) = sum_{k=0..s} C(s,k) (-x)^k [F(A,B+kI;C+kI;x)]*(B)_k*(C)_k^-1",
        ),
        _descriptor(
            "G-B+s-sum", _G, "B", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("A", "C")],
            "F(B+sI,A;C;x) = F(B,A;C;x) + x*[sum_{k=1..s} F(B+kI,A+I;C+I;x)]*A*C^-1",
            swap_of="G-A+s-sum", swap_map=_GAUSS_SWAP,
        ),
        _descriptor(
            "G-B-s-sum", _G, "B", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("A", "C")],
            "F(B-sI,A;C;x) = F(B,A;C;x) - x*[sum_{k=0..s-1} F(B-kI,A+I;C+I;x)]*A*C^-1",
            swap_of="G-A-s-sum", swap_map=_GAUSS_SWAP,
        ),
        _descriptor(
            "G-B+s-binom", _G, "B", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("A", "C")],
            "F(B+sI,A;C;x) = sum_{k=0..s} C(s,k) x^k [F(B+kI,A+kI;C+kI;x)]*(A)_k*(C)_k^-1",
            swap_of="G-A+s-binom", swap_map=_GAUSS_SWAP,
        ),
        _descriptor(
            "G-B-s-binom", _G, "B", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("A", "C")],
            "F(B-sI,A;C;x) = sum_{k=0..s} C(s,k) (-x)^k [F(B,A+kI;C+kI;x)]*(A)_k*(C)_k^-1",
            swap_of="G-A-s-binom", swap_map=_GAUSS_SWAP,
        ),
        _descriptor(
            "G-C-1-contig", _G, "C", DIRECTION_DECREMENT, FORM_CONTIGUOUS,
            [("B", "C")],
            "F(A,B;C-I;x) = F(A,B;C;x) + x*A*[F(A+I,B+I;C+I;x)]*B*C^-1*(C-I)^-1",
            fixed_shift=1,
        ),
        _descriptor(
            "G-C-s-sum", _G, "C", DIRECTION_DECREMENT, FORM_C_SHIFT,
            [("B", "C")],
            "F(A,B;C-sI;x) = F(A,B;C;x) + x*A*sum_{k=1..s} "
            "[F(A+I,B+I;C+(2-k)I;x)]*B*(C-kI)^-1*(C-(k-1)I)^-1",
        ),
        _descriptor(
            "F1-A+1-contig", _F1, "A", DIRECTION_INCREMENT, FORM_CONTIGUOUS,
            [("A", "B"), ("Bp", "C")],
            "F1(A+I) = F1(A) + x*B*[F1(A+I,B+I,B';C+I)]*C^-1 "
            "+ y*[F1(A+I,B,B'+I;C+I)]*B'*C^-1",
            fixed_shift=1,
        ),
        _descriptor(
            "F1-A-1-contig", _F1, "A", DIRECTION_DECREMENT, FORM_CONTIGUOUS,
            [("A", "B"), ("Bp", "C")],
            "F1(A-I) = F1(A) - x*B*[F1(A,B+I,B';C+I)]*C^-1 "
            "- y*[F1(A,B,B'+I;C+I)]*B'*C^-1",
            fixed_shift=1,
        ),
        _descriptor(
            "F1-A+s-sum", _F1, "A", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("A", "B"), ("Bp", "C")],
            "F1(A+sI) = F1(A) + x*B*[sum_k F1(A+kI,B+I,B';C+I)]*C^-1 "
            "+ y*[sum_k F1(A+kI,B,B'+I;C+I)]*B'*C^-1, k=1..s",
        ),
        _descriptor(
            "F1-A-s-sum", _F1, "A", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("A", "B"), ("Bp", "C")],
            "F1(A-sI) = F1(A) - x*B*[sum_k F1(A-kI,B+I,B';C+I)]*C^-1 "
            "- y*[sum_k F1(A-kI,B,B'+I;C+I)]*B'*C^-1, k=0..s-1",
        ),
        _descriptor(
            "F1-A+s-multinom", _F1, "A", DIRECTION_INCREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("Bp", "C")],
            "F1(A+sI) = sum_{k1+k2<=s} M(s,k1,k2) (B)_k1 x^k1 y^k2 "
            "[F1(A+(k1+k2)I,B+k1I,B'+k2I;C+(k1+k2)I)]*(B')_k2*(C)_{k1+k2}^-1",
        ),
        _descriptor(
            "F1-A-s-multinom", _F1, "A", DIRECTION_DECREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("Bp", "C")],
            "F1(A-sI) = sum_{k1+k2<=s} M(s,k1,k2) (B)_k1 (-x)^k1 (-y)^k2 "
            "[F1(A,B+k1I,B'+k2I;C+(k1+k2)I)]*(B')_k2*(C)_{k1+k2}^-1",
        ),
        _descriptor(
            "F1-B+s-sum", _F1, "B", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [],
            "F1(B+sI) = F1(B) + x*A*[sum_{k=1..s} F1(A+I,B+kI,B';C+I)]*C^-1",
        ),
        _descriptor(
            "F1-B-s-sum", _F1, "B", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [],
            "F1(B-sI) = F1(B) - x*A*[sum_{k=0..s-1} F1(A+I,B-kI,B';C+I)]*C^-1",
        ),
        _descriptor(
            "F1-Bp+s-sum", _F1, "Bp", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [],
            "F1(B'+sI) = F1(B') + y*A*[sum_{k=1..s} F1(A+I,B,B'+kI;C+I)]*C^-1",
        ),
        _descriptor(
            "F1-Bp-s-sum", _F1, "Bp", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [],
            "F1(B'-sI) = F1(B') - y*A*[sum_{k=0..s-1} F1(A+I,B,B'-kI;C+I)]*C^-1",
        ),
        _descriptor(
            "F1-B+s-binom", _F1, "B", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [],
            "F1(B+sI) = sum_{k=0..s} C(s,k) (A)_k x^k "
            "[F1(A+kI,B+kI,B';C+kI)]*(C)_k^-1",
        ),
        _descriptor(
            "F1-B-s-binom", _F1, "B", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [],
            "F1(B-sI) = sum_{k=0..s} C(s,k) (A)_k (-x)^k "
            "[F1(A+kI,B,B';C+kI)]*(C)_k^-1",
        ),
        _descriptor(
            "F1-Bp+s-binom", _F1, "Bp", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [],
            "F1(B'+sI) = sum_{k=0..s} C(s,k) (A)_k y^k "
            "[F1(A+kI,B,B'+kI;C+kI)]*(C)_k^-1",
        ),
        _descriptor(
            "F1-Bp-s-binom", _F1, "Bp", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [],
            "F1(B'-sI) = sum_{k=0..s} C(s,k) (A)_k (-y)^k "
            "[F1(A+kI,B,B';C+kI)]*(C)_k^-1",
        ),
        _descriptor(
            "F1-C-1-contig", _F1, "C", DIRECTION_DECREMENT, FORM_CONTIGUOUS,
            [("A", "B"), ("Bp", "C")],
            "F1(C-I) = F1(C) + x*A*B*[F1(A+I,B+I,B';C+I)]*C^-1*(C-I)^-1 "
            "+ y*A*[F1(A+I,B,B'+I;C+I)]*B'*C^-1*(C-I)^-1",
            fixed_shift=1,
        ),
        _descriptor(
            "F1-C-s-sum", _F1, "C", DIRECTION_DECREMENT, FORM_C_SHIFT,
            [("A", "B"), ("Bp", "C")],
            "F1(C-sI) = F1(C) + x*A*B*sum_k [F1(A+I,B+I,B';C+(2-k)I)]*Rk "
            "+ y*A*sum_k [F1(A+I,B,B'+I;C+(2-k)I)]*B'*Rk, "
            "Rk = (C-kI)^-1*(C-(k-1)I)^-1, k=1..s",
        ),
        _descriptor(
            "F2-A+s-sum", _F2, "A", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("A", "B"), ("Bp", "C"), ("Bp", "Cp"), ("C", "Cp")],
            "F2(A+sI) = F2(A) + x*B*[sum_k F2(A+kI,B+I,B';C+I,C')]*C^-1 "
            "+ y*[sum_k F2(A+kI,B,B'+I;C,C'+I)]*B'*C'^-1, k=1..s",
        ),
        _descriptor(
            "F2-A-s-sum", _F2, "A", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("A", "B"), ("Bp", "C"), ("Bp", "Cp"), ("C", "Cp")],
            "F2(A-sI) = F2(A) - x*B*[sum_k F2(A-kI,B+I,B';C+I,C')]*C^-1 "
            "- y*[sum_k F2(A-kI,B,B'+I;C,C'+I)]*B'*C'^-1, k=0..s-1",
        ),
        _descriptor(
            "F2-A+s-multinom", _F2, "A", DIRECTION_INCREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("Bp", "C"), ("Bp", "Cp"), ("C", "Cp")],
            "F2(A+sI) = sum_{k1+k2<=s} M(s,k1,k2) (B)_k1 x^k1 y^k2 "
            "[F2(A+(k1+k2)I,B+k1I,B'+k2I;C+k1I,C'+k2I)]*(B')_k2*(C)_k1^-1*(C')_k2^-1",
        ),
        _descriptor(
            "F2-A-s-multinom", _F2, "A", DIRECTION_DECREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("Bp", "C"), ("Bp", "Cp"), ("C", "Cp")],
            "F2(A-sI) = sum_{k1+k2<=s} M(s,k1,k2) (B)_k1 (-x)^k1 (-y)^k2 "
            "[F2(A,B+k1I,B'+k2I;C+k1I,C'+k2I)]*(B')_k2*(C)_k1^-1*(C')_k2^-1",
        ),
        _descriptor(
            "F2-B+s-sum", _F2, "B", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("C", "Cp")],
            "F2(B+sI) = F2(B) + x*A*[sum_{k=1..s} F2(A+I,B+kI,B';C+I,C')]*C^-1",
        ),
        _descriptor(
            "F2-B-s-sum", _F2, "B", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("C", "Cp")],
            "F2(B-sI) = F2(B) - x*A*[sum_{k=0..s-1} F2(A+I,B-kI,B';C+I,C')]*C^-1",
        ),
        _descriptor(
            "F2-Bp+s-sum", _F2, "Bp", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("C", "Cp")],
            "F2(B'+sI) = F2(B') + y*A*[sum_{k=1..s} F2(A+I,B,B'+kI;C,C'+I)]*C'^-1",
        ),
        _descriptor(
            "F2-Bp-s-sum", _F2, "Bp", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("C", "Cp")],
            "F2(B'-sI) = F2(B') - y*A*[sum_{k=0..s-1} F2(A+I,B,B'-kI;C,C'+I)]*C'^-1",
        ),
        _descriptor(
            "F2-B+s-binom", _F2, "B", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("C", "Cp")],
            "F2(B+sI) = sum_{k=0..s} C(s,k) (A)_k x^k "
            "[F2(A+kI,B+kI,B';C+kI,C')]*(C)_k^-1",
        ),
        _descriptor(
            "F2-B-s-binom", _F2, "B", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("C", "Cp")],
            "F2(B-sI) = sum_{k=0..s} C(s,k) (A)_k (-x)^k "
            "[F2(A+kI,B,B';C+kI,C')]*(C)_k^-1",
        ),
        _descriptor(
            "F2-Bp+s-binom", _F2, "Bp", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("C", "Cp")],
            "F2(B'+sI) = sum_{k=0..s} C(s,k) (A)_k y^k "
            "[F2(A+kI,B,B'+kI;C,C'+kI)]*(C')_k^-1",
        ),
        _descriptor(
            "F2-Bp-s-binom", _F2, "Bp", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("C", "Cp")],
            "F2(B'-sI) = sum_{k=0..s} C(s,k) (A)_k (-y)^k "
            "[F2(A+kI,B,B';C,C'+kI)]*(C')_k^-1",
        ),
        _descriptor(
            "F2-C-s-sum", _F2, "C", DIRECTION_DECREMENT, FORM_C_SHIFT,
            [("A", "B"), ("Bp", "C"), ("Bp", "Cp"), ("C", "Cp")],
            "F2(C-sI) = F2(C) + x*A*B*[sum_k F2(A+I,B+I,B';C+(2-k)I,C')*Rk], "
            "Rk = (C-kI)^-1*(C-(k-1)I)^-1, k=1..s",
        ),
        _descriptor(
            "F2-Cp-s-sum", _F2, "Cp", DIRECTION_DECREMENT, FORM_C_SHIFT,
            [("A", "B"), ("Bp", "C"), ("Bp", "Cp"), ("C", "Cp")],
            "F2(C'-sI) = F2(C') + y*A*[sum_k F2(A+I,B,B'+I;C,C'+(2-k)I)*R'k]*B', "
            "R'k = (C'-kI)^-1*(C'-(k-1)I)^-1, k=1..s",
        ),
        _descriptor(
            "F3-A+s-sum", _F3, "A", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A+sI) = F3(A) + x*B*[sum_{k=1..s} F3(A+kI,A',B+I,B';C+I)]*C^-1",
        ),
        _descriptor(
            "F3-A-s-sum", _F3, "A", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A-sI) = F3(A) - x*B*[sum_{k=0..s-1} F3(A-kI,A',B+I,B';C+I)]*C^-1",
        ),
        _descriptor(
            "F3-Ap+s-sum", _F3, "Ap", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A'+sI) = F3(A') + y*[sum_{k=1..s} F3(A,A'+kI,B,B'+I;C+I)]*B'*C^-1",
        ),
        _descriptor(
            "F3-Ap-s-sum", _F3, "Ap", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A'-sI) = F3(A') - y*[sum_{k=0..s-1} F3(A,A'-kI,B,B'+I;C+I)]*B'*C^-1",
        ),
        _descriptor(
            "F3-A+s-binom", _F3, "A", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A+sI) = sum_{k=0..s} C(s,k) (B)_k x^k "
            "[F3(A+kI,A',B+kI,B';C+kI)]*(C)_k^-1",
        ),
        _descriptor(
            "F3-A-s-binom", _F3, "A", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A-sI) = sum_{k=0..s} C(s,k) (B)_k (-x)^k "
            "[F3(A,A',B+kI,B';C+kI)]*(C)_k^-1",
        ),
        _descriptor(
            "F3-Ap+s-binom", _F3, "Ap", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A'+sI) = sum_{k=0..s} C(s,k) y^k "
            "[F3(A,A'+kI,B,B'+kI;C+kI)]*(B')_k*(C)_k^-1",
        ),
        _descriptor(
            "F3-Ap-s-binom", _F3, "Ap", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")],
            "F3(A'-sI) = sum_{k=0..s} C(s,k) (-y)^k "
            "[F3(A,A',B,B'+kI;C+kI)]*(B')_k*(C)_k^-1",
        ),
        _descriptor(
            "F3-B+s-sum", _F3, "B", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B+sI) via the A-shift identity with A<->B, A'<->B' transposed",
            swap_of="F3-A+s-sum", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-B-s-sum", _F3, "B", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B-sI) via the A-shift identity with A<->B, A'<->B' transposed",
            swap_of="F3-A-s-sum", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-Bp+s-sum", _F3, "Bp", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B'+sI) via the A'-shift identity with A<->B, A'<->B' transposed",
            swap_of="F3-Ap+s-sum", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-Bp-s-sum", _F3, "Bp", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B'-sI) via the A'-shift identity with A<->B, A'<->B' transposed",
            swap_of="F3-Ap-s-sum", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-B+s-binom", _F3, "B", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B+sI) via the A-shift binomial identity, arguments transposed",
            swap_of="F3-A+s-binom", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-B-s-binom", _F3, "B", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B-sI) via the A-shift binomial identity, arguments transposed",
            swap_of="F3-A-s-binom", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-Bp+s-binom", _F3, "Bp", DIRECTION_INCREMENT, FORM_BINOMIAL,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B'+sI) via the A'-shift binomial identity, arguments transposed",
            swap_of="F3-Ap+s-binom", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-Bp-s-binom", _F3, "Bp", DIRECTION_DECREMENT, FORM_BINOMIAL,
            [("B", "Bp"), ("B", "A"), ("Bp", "A"), ("Ap", "C")],
            "F3(B'-sI) via the A'-shift binomial identity, arguments transposed",
            swap_of="F3-Ap-s-binom", swap_map=_F3_SWAP,
        ),
        _descriptor(
            "F3-C-s-sum", _F3, "C", DIRECTION_DECREMENT, FORM_C_SHIFT,
            [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C"), ("Ap", "C")],
            "F3(C-sI) = F3(C) + x*A*B*[sum_k F3(A+I,A',B+I,B';C+(2-k)I)]*Rk "
            "+ y*A'*[sum_k F3(A,A'+I,B,B'+I;C+(2-k)I)*Rk]*B', "
            "Rk = (C-kI)^-1*(C-(k-1)I)^-1, k=1..s",
        ),
        _descriptor(
            "F4-A+s-sum", _F4, "A", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("A", "B"), ("C", "Cp")],
            "F4(A+sI) = F4(A) + x*B*[sum_k F4(A+kI,B+I;C+I,C')]*C^-1 "
            "+ y*B*[sum_k F4(A+kI,B+I;C,C'+I)]*C'^-1, k=1..s",
        ),
        _descriptor(
            "F4-A-s-sum", _F4, "A", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("A", "B"), ("C", "Cp")],
            "F4(A-sI) = F4(A) - x*B*[sum_k F4(A-kI,B+I;C+I,C')]*C^-1 "
            "- y*B*[sum_k F4(A-kI,B+I;C,C'+I)]*C'^-1, k=0..s-1",
        ),
        _descriptor(
            "F4-A+s-multinom", _F4, "A", DIRECTION_INCREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("C", "Cp")],
            "F4(A+sI) = sum_{k1+k2<=s} M(s,k1,k2) (B)_{k1+k2} x^k1 y^k2 "
            "[F4(A+(k1+k2)I,B+(k1+k2)I;C+k1I,C'+k2I)]*(C)_k1^-1*(C')_k2^-1",
        ),
        _descriptor(
            "F4-A-s-multinom", _F4, "A", DIRECTION_DECREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("C", "Cp")],
            "F4(A-sI) = sum_{k1+k2<=s} M(s,k1,k2) (B)_{k1+k2} (-x)^k1 (-y)^k2 "
            "[F4(A,B+(k1+k2)I;C+k1I,C'+k2I)]*(C)_k1^-1*(C')_k2^-1",
        ),
        _descriptor(
            "F4-B+s-sum", _F4, "B", DIRECTION_INCREMENT, FORM_TELESCOPING,
            [("A", "B"), ("C", "Cp")],
            "F4(B+sI) via the A-shift identity with A<->B transposed",
            swap_of="F4-A+s-sum", swap_map=_F4_SWAP,
        ),
        _descriptor(
            "F4-B-s-sum", _F4, "B", DIRECTION_DECREMENT, FORM_TELESCOPING,
            [("A", "B"), ("C", "Cp")],
            "F4(B-sI) via the A-shift identity with A<->B transposed",
            swap_of="F4-A-s-sum", swap_map=_F4_SWAP,
        ),
        _descriptor(
            "F4-B+s-multinom", _F4, "B", DIRECTION_INCREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("C", "Cp")],
            "F4(B+sI) via the A-shift multinomial identity, arguments transposed",
            swap_of="F4-A+s-multinom", swap_map=_F4_SWAP,
        ),
        _descriptor(
            "F4-B-s-multinom", _F4, "B", DIRECTION_DECREMENT, FORM_MULTINOMIAL,
            [("A", "B"), ("C", "Cp")],
            "F4(B-sI) via the A-shift multinomial identity, arguments transposed",
            swap_of="F4-A-s-multinom", swap_map=_F4_SWAP,
        ),
        _descriptor(
            "F4-C-s-sum", _F4, "C", DIRECTION_DECREMENT, FORM_C_SHIFT,
            [("A", "B"), ("C", "Cp")],
            "F4(C-sI) = F4(C) + x*A*B*[sum_k F4(A+I,B+I;C+(2-k)I,C')*Rk], "
            "Rk = (C-kI)^-1*(C-(k-1)I)^-1, k=1..s",
        ),
        _descriptor(
            "F4-Cp-s-sum", _F4, "Cp", DIRECTION_DECREMENT, FORM_C_SHIFT,
            [("A", "B"), ("C", "Cp")],
            "F4(C'-sI) = F4(C') + y*A*B*[sum_k F4(A+I,B+I;C,C'+(2-k)I)*R'k], "
            "R'k = (C'-kI)^-1*(C'-(k-1)I)^-1, k=1..s",
        ),
    ]
    seen = set()
    for entry in entries:
        if entry.id in seen:
            raise RuntimeError(f"duplicate catalog id {entry.id}")
        seen.add(entry.id)
        if entry.swap_of is None and entry.id not in _RECIPES:
            raise RuntimeError(f"catalog id {entry.id} has no recipe")
    return tuple(entries)


_CATALOG = _build_catalog()
_BY_ID = {entry.id: entry for entry in _CATALOG}


def catalog() -> tuple[IdentityDescriptor, ...]:
    """All catalogued identities, in catalog order."""
    return _CATALOG


def get(identity_id: str) -> IdentityDescriptor:
    try:
        return _BY_ID[identity_id]
    except KeyError:
        raise UnknownIdentity(
            f"unknown identity {identity_id!r}; valid ids: "
            + ", ".join(sorted(_BY_ID))
        ) from None


def _resolve(d: IdentityDescriptor, params: ParameterSet):
    """Follow a swap delegation to the base identity and transposed set."""
    if d.swap_of is None:
        return d, params
    base = get(d.swap_of)
    mapping = dict(d.swap_map)
    return base, params.renamed(mapping)


def check_hypotheses(d: IdentityDescriptor, params: ParameterSet, s: int) -> bool:
    """True when all commutation pairs and shift invertibilities hold.

    Commutation is accepted when the defect is below COMMUTATION_RTOL times
    the product of operand norms; invertibility of the moved parameter plus
    or minus kI is checked for every k up to the effective shift.
    """
    if params.kind is not d.kind:
        raise ValueError(f"parameter set is for {params.kind.value}, not {d.kind.value}")
    s_eff = d.effective_shift(s)
    for left, right in d.commuting_pairs:
        a, b = params[left], params[right]
        scale = max(1.0, linalg.frobenius_norm(a) * linalg.frobenius_norm(b))
        if linalg.commutator_norm(a, b) > COMMUTATION_RTOL * scale:
            return False
    step = 1 if d.direction == DIRECTION_INCREMENT else -1
    shifts = range(0, step * (s_eff + 1), step)
    return linalg.is_invertible(linalg.shifted(params[d.shifted_parameter], shifts))


def _lhs_parameters(d: IdentityDescriptor, params: ParameterSet, s_eff: int) -> ParameterSet:
    delta = s_eff if d.direction == DIRECTION_INCREMENT else -s_eff
    return params.shifted(d.shifted_parameter, delta)


def eval_rhs(
    d: IdentityDescriptor,
    params: ParameterSet,
    s: int,
    point: EvalPoint,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    *,
    enforce_hypotheses: bool = True,
) -> Matrix:
    """Evaluate the identity's right-hand side; s = 0 collapses to the base value."""
    if s < 0:
        raise ValueError("shift count must be nonnegative")
    s_eff = d.effective_shift(s)
    if enforce_hypotheses and not check_hypotheses(d, params, s_eff):
        raise HypothesisViolated(f"hypotheses of {d.id} fail on these parameters")
    base_d, base_params = _resolve(d, params)
    probe = _SeriesProbe(point, cfg)
    return _RECIPES[base_d.id](base_params, s_eff, point, probe)


def verify_identity(
    d: IdentityDescriptor,
    params: ParameterSet,
    s: int,
    point: EvalPoint,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    campaign_tol: float = DEFAULT_CAMPAIGN_TOL,
    *,
    enforce_hypotheses: bool = True,
    seed: int = 0,
) -> VerificationReport:
    """Compare the directly evaluated shifted function against the recipe.

    Evaluator failures (singular shifts, non-convergence, violated
    hypotheses) are folded into a failed report with the cause recorded, so
    campaigns keep running.
    """
    s_eff = d.effective_shift(s)
    report = VerificationReport(
        identity_id=d.id,
        s=s_eff,
        seed=seed,
        order=params.order,
        residual=math.inf,
        passed=False,
    )
    try:
        if enforce_hypotheses and not check_hypotheses(d, params, s_eff):
            raise HypothesisViolated(
                f"hypotheses of {d.id} fail on these parameters"
            )
        base_d, base_params = _resolve(d, params)
        lhs_report = evaluate(_lhs_parameters(base_d, base_params, s_eff), point, cfg)
        probe = _SeriesProbe(point, cfg)
        rhs_value = _RECIPES[base_d.id](base_params, s_eff, point, probe)
        lhs_value = lhs_report.value
        residual = linalg.frobenius_norm(lhs_value - rhs_value) / (
            1.0 + linalg.frobenius_norm(lhs_value)
        )
        report.lhs_report = lhs_report
        report.rhs_degrees = probe.max_degrees
        report.residual = residual
        report.passed = residual <= campaign_tol
    except HypermatError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    return report


def _derive_seed(seed: int, identity_id: str, trial: int) -> int:
    tag = zlib.crc32(identity_id.encode("utf-8"))
    return (seed * 2654435761 + tag * 40503 + trial * 69069 + 1) % (2**63)


def draw_point(kind: FunctionKind, rng: random.Random) -> EvalPoint:
    """A point comfortably inside the kind's convergence region.

    Margins keep both sides of every identity convergent within the degree
    cap and clear of double-precision overflow in the intermediate chain
    products: |x|, |y| <= 0.3 generally, |x| + |y| <= 0.5 for F2, and
    sqrt|x| + sqrt|y| <= 0.7 for F4.
    """

    def polar(magnitude: float) -> complex:
        phase = 2.0 * math.pi * rng.random()
        return magnitude * complex(math.cos(phase), math.sin(phase))

    if kind is FunctionKind.GAUSS_2F1:
        return EvalPoint(x=polar(0.05 + 0.25 * rng.random()))
    if kind in (FunctionKind.APPELL_F1, FunctionKind.APPELL_F3):
        return EvalPoint(
            x=polar(0.05 + 0.25 * rng.random()),
            y=polar(0.05 + 0.25 * rng.random()),
        )
    if kind is FunctionKind.APPELL_F2:
        mx = 0.05 + 0.25 * rng.random()
        my = 0.05 + rng.random() * max(0.0, min(0.25, 0.45 - mx))
        return EvalPoint(x=polar(mx), y=polar(my))
    root_x = 0.1 + 0.45 * rng.random()
    root_y = 0.1 + rng.random() * (0.7 - root_x - 0.1)
    return EvalPoint(x=polar(root_x**2), y=polar(root_y**2))


def draw_family(
    d: IdentityDescriptor, order: int, s_eff: int, rng: random.Random
) -> CommutingFamily:
    """A commuting family whose spectra satisfy the identity's hypotheses.

    Decrement and c-shift identities must invert the moved parameter minus
    kI for k up to s, so its sampled eigenvalues are redrawn until they keep
    a clearance of 0.1 from the integers 0..s.
    """
    names = d.kind.parameter_names
    needs_clearance = d.direction == DIRECTION_DECREMENT
    for _ in range(100):
        family = random_commuting_family(order, names, rng.randrange(2**31))
        if not needs_clearance:
            return family
        eigenvalues = family.spectra[d.shifted_parameter]
        if all(
            abs(z - k) >= _SHIFT_CLEARANCE
            for z in eigenvalues
            for k in range(0, s_eff + 1)
        ):
            return family
    raise GenerationFailed(
        f"could not sample spectra clearing shifts 0..{s_eff} for {d.id}"
    )


def run_campaign(
    ids: list[str] | None = None,
    trials: int = 5,
    orders: tuple[int, ...] = (1, 2, 3),
    s_values: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    campaign_tol: float = DEFAULT_CAMPAIGN_TOL,
) -> list[VerificationReport]:
    """Verify identities on freshly drawn inputs, deterministically per seed.

    Each (identity, trial) pair derives its own seed, draws an order and a
    shift count from the supplied pools, then a commuting family and an
    in-region point, and verifies. Failures become failed reports, never
    exceptions; only bad arguments (empty pools, a shift below 1, a
    campaign_tol that is not positive) raise ValueError.
    """
    if ids is None:
        descriptors = list(catalog())
    else:
        descriptors = [get(identity_id) for identity_id in ids]
    if not orders or not s_values:
        raise ValueError("orders and s_values must be non-empty")
    if min(s_values) <= 0:
        raise ValueError(f"shifts must be positive, got {list(s_values)}")
    if not campaign_tol > 0.0:
        raise ValueError(f"campaign_tol must be positive, got {campaign_tol}")
    reports = []
    for d in descriptors:
        for trial in range(trials):
            trial_seed = _derive_seed(seed, d.id, trial)
            rng = random.Random(trial_seed)
            order = rng.choice(list(orders))
            s = rng.choice(list(s_values))
            s_eff = d.effective_shift(s)
            try:
                family = draw_family(d, order, s_eff, rng)
            except GenerationFailed as exc:
                reports.append(
                    VerificationReport(
                        identity_id=d.id,
                        s=s_eff,
                        seed=trial_seed,
                        order=order,
                        residual=math.inf,
                        passed=False,
                        error=f"GenerationFailed: {exc}",
                    )
                )
                continue
            params = ParameterSet(
                d.kind, {name: family.realize(name) for name in d.kind.parameter_names}
            )
            point = draw_point(d.kind, rng)
            reports.append(
                verify_identity(
                    d, params, s, point, cfg, campaign_tol, seed=trial_seed
                )
            )
    return reports
