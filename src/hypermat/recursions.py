"""Catalog of shift recursions for the matrix hypergeometric functions.

Every right-hand side in the catalog, for 2F1 and F1-F4 alike, is a sum over
an index set of terms

    weight * left coefficients * F(shifted parameters) * right coefficients

with a weight of sign, C(s,k) or M(s,k1,k2) and powers of x and y, and
coefficients built from P, (P)_j, (P)_j^-1 and (P - jI)^-1, j affine in the
index. _TABLE holds them as data in catalog order: a base row gives its index
set and terms (the base value F(P) names no index and is not summed), a swap
row is a base row on the renamed parameter set, a contiguous row pins the
shift to 1, and a decrement row with an increment twin is derived from it
(_down): a telescoping sum flips the sign of each indexed term, sums over
k=0..s-1 and moves the parameter by -k inside; a binomial or multinomial
sum takes -x and -y and leaves the moved parameter out of the inner slot.
One interpreter (_rhs) serves eval_rhs and verify_identity:
it builds each coefficient once per right-hand side (one Pochhammer chain per
parameter, one stacked inverse for all (P - jI)^-1 of a parameter) and keeps
every factor list in printed order, since non-commuting factors never cross
the inner value. Each term's number, its weight and factorial ratio
together, is one exact integer quotient rounded once (_scalar). One renderer
writes each formula and hypothesis text from the same table at import.

Each identity is verified numerically: the left-hand side and every inner
series of the right-hand side are summed as one batch by the series engine,
and the sides are compared in the scaled Frobenius metric
||lhs - rhs|| / (1 + ||lhs||). Campaigns draw commuting parameter families
and in-region points deterministically from a seed.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import re
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .calculus import CommutingFamily, PochhammerChain, random_commuting_family
from .errors import GenerationFailed, HypermatError, HypothesisViolated, Overflow, SingularMatrix
from .errors import UnknownIdentity
from .linalg import Matrix
from .series import DEFAULT_CONFIG, EvalPoint, EvalReport, FunctionKind, ParameterSet
from .series import SeriesConfig, _member_report, evaluate_many

# ``recursions.evaluate`` stays bound: perfbench/tracer.py wraps it by that name.
from .series import evaluate  # noqa: F401

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
    """One catalogued recursion: its shape, hypotheses and rendered formula.

    ``commuting_pairs`` lists the parameter pairs that must commute;
    invertibility requirements follow from ``shifted_parameter`` and
    ``direction`` (all shifts by 0..s of the moved parameter, in the moving
    direction). ``formula`` and ``hypotheses`` are plain-text renderings of
    the term table, used in listings. ``swap_of``/``swap_map`` mark entries
    realized by argument transposition of another entry. A contiguous entry
    (``form`` FORM_CONTIGUOUS) is a single step by its form, so it caps every
    shift count at 1; campaign shift counts do not apply to it.
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
    hypotheses: str = ""

    def effective_shift(self, s: int) -> int:
        """The shift count actually applied, a Python int; contiguous entries
        cap it at 1.

        An s that is not an int or a numpy integer (a bool among them), or
        is negative, raises ValueError here, for every path that applies it.
        """
        if not linalg.is_count(s):
            raise ValueError(f"shift count must be an integer, got {s!r}")
        if s < 0:
            raise ValueError("shift count must be nonnegative")
        return min(1, int(s)) if self.form == FORM_CONTIGUOUS else int(s)


@dataclass(eq=False)
class VerificationReport:
    """Outcome of one LHS-vs-RHS comparison; failed until a residual passes."""

    identity_id: str
    s: int
    seed: int
    order: int
    residual: float = math.inf
    passed: bool = False
    lhs_report: EvalReport | None = None
    rhs_degrees: int = 0
    error: str | None = None


# -- The term table: types and constructors ---------------------------------

# Index set -> the index values at shift count s, in summation order.
_INDEX_SETS = {
    "k=1..s": lambda s: [{"k": k} for k in range(1, s + 1)],
    "k=0..s-1": lambda s: [{"k": k} for k in range(s)],
    "k=0..s": lambda s: [{"k": k} for k in range(s + 1)],
    "k1+k2<=s": lambda s: [
        {"k1": k1, "k2": k2} for k1 in range(s + 1) for k2 in range(s - k1 + 1)
    ],
}


# An index is affine in the index variables: k, -k, 2-k, k-1, k1+k2, 0, ...
_INDEX_ATOM = r"(\d+|k[12]?)"
_INDEX = re.compile(rf"-?{_INDEX_ATOM}([+-]{_INDEX_ATOM})*")


@functools.cache
def _signed_atoms(text: str) -> tuple[tuple[int, str], ...]:
    """The (sign, atom) terms of an index text, parsed once per distinct text."""
    return tuple((int(sign + "1"), a) for sign, a in re.findall(rf"([+-]?){_INDEX_ATOM}", text))


def _at(text: str | None, env: dict[str, int]) -> int:
    """The value of an index at the index values ``env``; no index is 0."""
    terms = _signed_atoms(text or "0")
    return sum(sign * (int(a) if a.isdigit() else env[a]) for sign, a in terms)


class _Weight(NamedTuple):
    """sign * C(s,k) or M(s,k1,k2) (the ``coefficient`` variables) * x^x * y^y,
    with -x and -y in place of x and y when ``negated``; None powers are absent.
    Plain data: the renderer and _scalar read it."""

    sign: int = 1
    coefficient: tuple[str, ...] = ()
    negated: bool = False
    x: str | None = None
    y: str | None = None


class _Atom(NamedTuple):
    """A coefficient: op "P" is P, "poch" (P)_j, "poch_inv" (P)_j^-1 and
    "shift_inv" the resolvent (P - jI)^-1, with j the affine ``index``."""

    op: str
    name: str
    index: str | None = None


class _Term(NamedTuple):
    """weight * factors, multiplied left to right. Exactly one factor is the
    inner slot, a dict of the shift of each moved parameter; only ``indexed``
    terms are summed, the base value F(P) is taken once."""

    weight: _Weight
    factors: tuple[_Atom | dict[str, str], ...]
    slot: dict[str, str]
    indexed: bool


class _Row(NamedTuple):
    """A base row: the descriptor fields, the index set and the terms."""

    id: str
    kind: FunctionKind
    moved: str
    direction: str
    form: str
    pairs: tuple[tuple[str, str], ...]
    index: str
    terms: tuple[_Term, ...]


class _Swap(NamedTuple):
    """Base row ``of`` evaluated on the parameter set renamed by ``mapping``."""

    id: str
    of: str
    mapping: tuple[tuple[str, str], ...]


class _Contig(NamedTuple):
    """Row ``of`` with its shift pinned to 1."""

    id: str
    of: str


class _Down(NamedTuple):
    """The decrement twin of increment row ``of`` (see _down)."""

    id: str
    of: str


def _row(identity_id, kind, moved, direction, form, pairs, index, *terms) -> _Row:
    return _Row(identity_id, kind, moved, direction, form, tuple(pairs), index, terms)


def _t(weight: _Weight, *factors) -> _Term:
    slots = [f for f in factors if isinstance(f, dict)]
    if len(slots) != 1:
        raise ValueError("a term holds exactly one inner slot")
    texts = [weight.x, weight.y] + list(slots[0].values())
    texts = [t for t in texts + [f.index for f in factors if isinstance(f, _Atom)] if t]
    for text in texts:
        if not _INDEX.fullmatch(text):
            raise ValueError(f"not an affine index: {text!r}")
    return _Term(weight, factors, slots[0], any("k" in text for text in texts))


def _down(row: _Row, identity_id: str) -> _Row:
    """The decrement twin of an increment row. A telescoping sum flips the
    sign of each indexed term, moves its index set from k=1..s to k=0..s-1
    and the moved parameter's inner shift from j to -j; a binomial or
    multinomial sum negates x and y and drops the moved parameter from the
    inner slot. The base value F(P), the factors and their order stay."""
    telescoping = row.form == FORM_TELESCOPING

    def down(term: _Term) -> _Term:
        slot, w = dict(term.slot), term.weight
        if telescoping:
            slot[row.moved], w = "-" + slot[row.moved], w._replace(sign=-w.sign)
        else:
            del slot[row.moved]
            w = w._replace(negated=True)
        return _t(w, *[slot if isinstance(f, dict) else f for f in term.factors])

    index = "k=0..s-1" if telescoping else row.index
    terms = tuple(down(t) if t.indexed else t for t in row.terms)
    return row._replace(id=identity_id, direction=DIRECTION_DECREMENT, index=index, terms=terms)


_F = dict  # the inner slot: _F(A="k", B="1") is F at A + kI, B + I
_P, _poch, _pinv, _res = (
    functools.partial(_Atom, op) for op in ("P", "poch", "poch_inv", "shift_inv")
)

_X, _Y = _Weight(x="1"), _Weight(y="1")
_BX, _BY = _Weight(coefficient=("k",), x="k"), _Weight(coefficient=("k",), y="k")
_M = _Weight(coefficient=("k1", "k2"), x="k1", y="k2")

#: The base value F(P), which stands outside every sum.
_BASE = _t(_Weight(), _F())

_G, _F1, _F2, _F3, _F4 = FunctionKind
_INC, _DEC, _CON = DIRECTION_INCREMENT, DIRECTION_DECREMENT, FORM_CONTIGUOUS
_TEL, _BIN, _MUL, _CSH = FORM_TELESCOPING, FORM_BINOMIAL, FORM_MULTINOMIAL, FORM_C_SHIFT

_GAUSS_SWAP = _F4_SWAP = (("A", "B"), ("B", "A"))
_F3_SWAP = (("A", "B"), ("B", "A"), ("Ap", "Bp"), ("Bp", "Ap"))

_PAIRS_G = [("B", "C")]
_PAIRS_F1 = [("A", "B"), ("Bp", "C")]
_PAIRS_F2 = [("A", "B"), ("Bp", "C"), ("Bp", "Cp"), ("C", "Cp")]
_PAIRS_F3 = [("A", "Ap"), ("A", "B"), ("Ap", "B"), ("Bp", "C")]
_PAIRS_F4 = [("A", "B"), ("C", "Cp")]


# -- The catalog, in catalog order (trial seeds hash the ids) ----------------
# Factor lists are in printed order: never reorder them.

_TABLE = (
    _Contig("G-A+1-contig", "G-A+s-sum"),
    _Contig("G-A-1-contig", "G-A-s-sum"),
    _row("G-A+s-sum", _G, "A", _INC, _TEL, _PAIRS_G, "k=1..s", _BASE,
         _t(_X, _F(A="k", B="1", C="1"), _P("B"), _res("C", "0"))),
    _Down("G-A-s-sum", "G-A+s-sum"),
    _row("G-A+s-binom", _G, "A", _INC, _BIN, _PAIRS_G, "k=0..s",
         _t(_BX, _F(A="k", B="k", C="k"), _poch("B", "k"), _pinv("C", "k"))),
    _Down("G-A-s-binom", "G-A+s-binom"),
    _Swap("G-B+s-sum", "G-A+s-sum", _GAUSS_SWAP),
    _Swap("G-B-s-sum", "G-A-s-sum", _GAUSS_SWAP),
    _Swap("G-B+s-binom", "G-A+s-binom", _GAUSS_SWAP),
    _Swap("G-B-s-binom", "G-A-s-binom", _GAUSS_SWAP),
    _row("G-C-1-contig", _G, "C", _DEC, _CON, _PAIRS_G, "k=1..s", _BASE, _t(
        _X, _P("A"), _F(A="1", B="1", C="2-k"), _P("B"), _res("C", "k-1"), _res("C", "k"))),
    _row("G-C-s-sum", _G, "C", _DEC, _CSH, _PAIRS_G, "k=1..s", _BASE, _t(
        _X, _P("A"), _F(A="1", B="1", C="2-k"), _P("B"), _res("C", "k"), _res("C", "k-1"))),
    _Contig("F1-A+1-contig", "F1-A+s-sum"),
    _Contig("F1-A-1-contig", "F1-A-s-sum"),
    _row("F1-A+s-sum", _F1, "A", _INC, _TEL, _PAIRS_F1, "k=1..s", _BASE,
         _t(_X, _P("B"), _F(A="k", B="1", C="1"), _res("C", "0")),
         _t(_Y, _F(A="k", Bp="1", C="1"), _P("Bp"), _res("C", "0"))),
    _Down("F1-A-s-sum", "F1-A+s-sum"),
    _row("F1-A+s-multinom", _F1, "A", _INC, _MUL, _PAIRS_F1, "k1+k2<=s", _t(
        _M, _poch("B", "k1"), _F(A="k1+k2", B="k1", Bp="k2", C="k1+k2"),
        _poch("Bp", "k2"), _pinv("C", "k1+k2"))),
    _Down("F1-A-s-multinom", "F1-A+s-multinom"),
    _row("F1-B+s-sum", _F1, "B", _INC, _TEL, [], "k=1..s", _BASE,
         _t(_X, _P("A"), _F(A="1", B="k", C="1"), _res("C", "0"))),
    _Down("F1-B-s-sum", "F1-B+s-sum"),
    _row("F1-Bp+s-sum", _F1, "Bp", _INC, _TEL, [], "k=1..s", _BASE,
         _t(_Y, _P("A"), _F(A="1", Bp="k", C="1"), _res("C", "0"))),
    _Down("F1-Bp-s-sum", "F1-Bp+s-sum"),
    _row("F1-B+s-binom", _F1, "B", _INC, _BIN, [], "k=0..s",
         _t(_BX, _poch("A", "k"), _F(A="k", B="k", C="k"), _pinv("C", "k"))),
    _Down("F1-B-s-binom", "F1-B+s-binom"),
    _row("F1-Bp+s-binom", _F1, "Bp", _INC, _BIN, [], "k=0..s",
         _t(_BY, _poch("A", "k"), _F(A="k", Bp="k", C="k"), _pinv("C", "k"))),
    _Down("F1-Bp-s-binom", "F1-Bp+s-binom"),
    _row("F1-C-1-contig", _F1, "C", _DEC, _CON, _PAIRS_F1, "k=1..s", _BASE,
         _t(_X, _P("A"), _P("B"), _F(A="1", B="1", C="2-k"), _res("C", "k-1"),
            _res("C", "k")),
         _t(_Y, _P("A"), _F(A="1", Bp="1", C="2-k"), _P("Bp"), _res("C", "k-1"),
            _res("C", "k"))),
    _row("F1-C-s-sum", _F1, "C", _DEC, _CSH, _PAIRS_F1, "k=1..s", _BASE,
         _t(_X, _P("A"), _P("B"), _F(A="1", B="1", C="2-k"), _res("C", "k"),
            _res("C", "k-1")),
         _t(_Y, _P("A"), _F(A="1", Bp="1", C="2-k"), _P("Bp"), _res("C", "k"),
            _res("C", "k-1"))),
    _row("F2-A+s-sum", _F2, "A", _INC, _TEL, _PAIRS_F2, "k=1..s", _BASE,
         _t(_X, _P("B"), _F(A="k", B="1", C="1"), _res("C", "0")),
         _t(_Y, _F(A="k", Bp="1", Cp="1"), _P("Bp"), _res("Cp", "0"))),
    _Down("F2-A-s-sum", "F2-A+s-sum"),
    _row("F2-A+s-multinom", _F2, "A", _INC, _MUL, _PAIRS_F2, "k1+k2<=s", _t(
        _M, _poch("B", "k1"), _F(A="k1+k2", B="k1", Bp="k2", C="k1", Cp="k2"),
        _poch("Bp", "k2"), _pinv("C", "k1"), _pinv("Cp", "k2"))),
    _Down("F2-A-s-multinom", "F2-A+s-multinom"),
    _row("F2-B+s-sum", _F2, "B", _INC, _TEL, [("C", "Cp")], "k=1..s", _BASE,
         _t(_X, _P("A"), _F(A="1", B="k", C="1"), _res("C", "0"))),
    _Down("F2-B-s-sum", "F2-B+s-sum"),
    _row("F2-Bp+s-sum", _F2, "Bp", _INC, _TEL, [("C", "Cp")], "k=1..s", _BASE,
         _t(_Y, _P("A"), _F(A="1", Bp="k", Cp="1"), _res("Cp", "0"))),
    _Down("F2-Bp-s-sum", "F2-Bp+s-sum"),
    _row("F2-B+s-binom", _F2, "B", _INC, _BIN, [("C", "Cp")], "k=0..s",
         _t(_BX, _poch("A", "k"), _F(A="k", B="k", C="k"), _pinv("C", "k"))),
    _Down("F2-B-s-binom", "F2-B+s-binom"),
    _row("F2-Bp+s-binom", _F2, "Bp", _INC, _BIN, [("C", "Cp")], "k=0..s",
         _t(_BY, _poch("A", "k"), _F(A="k", Bp="k", Cp="k"), _pinv("Cp", "k"))),
    _Down("F2-Bp-s-binom", "F2-Bp+s-binom"),
    _row("F2-C-s-sum", _F2, "C", _DEC, _CSH, _PAIRS_F2, "k=1..s", _BASE, _t(
        _X, _P("A"), _P("B"), _F(A="1", B="1", C="2-k"), _res("C", "k"), _res("C", "k-1"))),
    _row("F2-Cp-s-sum", _F2, "Cp", _DEC, _CSH, _PAIRS_F2, "k=1..s", _BASE, _t(
        _Y, _P("A"), _F(A="1", Bp="1", Cp="2-k"), _res("Cp", "k"), _res("Cp", "k-1"),
        _P("Bp"))),
    _row("F3-A+s-sum", _F3, "A", _INC, _TEL, _PAIRS_F3, "k=1..s", _BASE,
         _t(_X, _P("B"), _F(A="k", B="1", C="1"), _res("C", "0"))),
    _Down("F3-A-s-sum", "F3-A+s-sum"),
    _row("F3-Ap+s-sum", _F3, "Ap", _INC, _TEL, _PAIRS_F3, "k=1..s", _BASE,
         _t(_Y, _F(Ap="k", Bp="1", C="1"), _P("Bp"), _res("C", "0"))),
    _Down("F3-Ap-s-sum", "F3-Ap+s-sum"),
    _row("F3-A+s-binom", _F3, "A", _INC, _BIN, _PAIRS_F3, "k=0..s",
         _t(_BX, _poch("B", "k"), _F(A="k", B="k", C="k"), _pinv("C", "k"))),
    _Down("F3-A-s-binom", "F3-A+s-binom"),
    _row("F3-Ap+s-binom", _F3, "Ap", _INC, _BIN, _PAIRS_F3, "k=0..s",
         _t(_BY, _F(Ap="k", Bp="k", C="k"), _poch("Bp", "k"), _pinv("C", "k"))),
    _Down("F3-Ap-s-binom", "F3-Ap+s-binom"),
    _Swap("F3-B+s-sum", "F3-A+s-sum", _F3_SWAP),
    _Swap("F3-B-s-sum", "F3-A-s-sum", _F3_SWAP),
    _Swap("F3-Bp+s-sum", "F3-Ap+s-sum", _F3_SWAP),
    _Swap("F3-Bp-s-sum", "F3-Ap-s-sum", _F3_SWAP),
    _Swap("F3-B+s-binom", "F3-A+s-binom", _F3_SWAP),
    _Swap("F3-B-s-binom", "F3-A-s-binom", _F3_SWAP),
    _Swap("F3-Bp+s-binom", "F3-Ap+s-binom", _F3_SWAP),
    _Swap("F3-Bp-s-binom", "F3-Ap-s-binom", _F3_SWAP),
    _row("F3-C-s-sum", _F3, "C", _DEC, _CSH, _PAIRS_F3 + [("Ap", "C")], "k=1..s", _BASE,
         _t(_X, _P("A"), _P("B"), _F(A="1", B="1", C="2-k"), _res("C", "k"),
            _res("C", "k-1")),
         _t(_Y, _P("Ap"), _F(Ap="1", Bp="1", C="2-k"), _res("C", "k"), _res("C", "k-1"),
            _P("Bp"))),
    _row("F4-A+s-sum", _F4, "A", _INC, _TEL, _PAIRS_F4, "k=1..s", _BASE,
         _t(_X, _P("B"), _F(A="k", B="1", C="1"), _res("C", "0")),
         _t(_Y, _P("B"), _F(A="k", B="1", Cp="1"), _res("Cp", "0"))),
    _Down("F4-A-s-sum", "F4-A+s-sum"),
    _row("F4-A+s-multinom", _F4, "A", _INC, _MUL, _PAIRS_F4, "k1+k2<=s", _t(
        _M, _poch("B", "k1+k2"), _F(A="k1+k2", B="k1+k2", C="k1", Cp="k2"),
        _pinv("C", "k1"), _pinv("Cp", "k2"))),
    _Down("F4-A-s-multinom", "F4-A+s-multinom"),
    _Swap("F4-B+s-sum", "F4-A+s-sum", _F4_SWAP),
    _Swap("F4-B-s-sum", "F4-A-s-sum", _F4_SWAP),
    _Swap("F4-B+s-multinom", "F4-A+s-multinom", _F4_SWAP),
    _Swap("F4-B-s-multinom", "F4-A-s-multinom", _F4_SWAP),
    _row("F4-C-s-sum", _F4, "C", _DEC, _CSH, _PAIRS_F4, "k=1..s", _BASE, _t(
        _X, _P("A"), _P("B"), _F(A="1", B="1", C="2-k"), _res("C", "k"), _res("C", "k-1"))),
    _row("F4-Cp-s-sum", _F4, "Cp", _DEC, _CSH, _PAIRS_F4, "k=1..s", _BASE, _t(
        _Y, _P("A"), _P("B"), _F(A="1", B="1", Cp="2-k"), _res("Cp", "k"),
        _res("Cp", "k-1"))),
)


# -- The renderer: formula and hypothesis text from the rows' terms -----------
# ``names`` maps each parameter slot of a row to the name shown for it: B'
# for Bp, and the swapped name for a swap row.

_TOKEN = re.compile(r"\d+|k[12]?|s")

def _shown(text: str, env: dict[str, int] | None) -> str:
    return text if env is None else str(_at(text, env))


def _grouped(j: str) -> str:
    return j if _TOKEN.fullmatch(j) else f"({j})"


def _plus(name: str, j: str, sign: str = "+") -> str:
    """``name`` moved by j times I: A, A+I, A-kI, A-sI, C+(2-k)I, C-(k-1)I."""
    if j == "0":
        return name
    if j[0] == "-" and _TOKEN.fullmatch(j[1:]):
        sign, j = "-", j[1:]
    return name + sign + ("" if j == "1" else _grouped(j)) + "I"


def _shown_function(kind: FunctionKind, shifts: dict[str, str], names) -> str:
    slots = [",".join([_plus(names[n], shifts.get(n, "0")) for n in group])
             for group in (kind.numerator_names, kind.denominator_names)]
    return f"{kind.value}({';'.join(slots)})"


def _shown_factor(f: _Atom | dict[str, str], kind, env, names) -> str:
    if isinstance(f, dict):
        return _shown_function(kind, {n: _shown(j, env) for n, j in f.items()}, names)
    name = names[f.name]
    if f.op == "P":
        return name
    j = _shown(f.index, env)
    if f.op == "shift_inv":
        return name + "^-1" if j == "0" else f"({_plus(name, j, '-')})^-1"
    sub = j if _TOKEN.fullmatch(j) else "{" + j + "}"
    return f"({name})_{sub}" + ("^-1" if f.op == "poch_inv" else "")


def _shown_term(term: _Term, kind, env, names) -> str:
    w, parts = term.weight, []
    if w.coefficient:
        parts.append(f"{'CM'[len(w.coefficient) - 1]}(s,{','.join(w.coefficient)})")
    for variable, power in (("x", w.x), ("y", w.y)):
        if power is not None:
            base, j = f"(-{variable})" if w.negated else variable, _shown(power, env)
            parts.append(base if j == "1" else f"{base}^{_grouped(j)}")
    return "*".join(parts + [_shown_factor(f, kind, env, names) for f in term.factors])


def _joined(terms, kind, env, names, sign: int = 1) -> str:
    """The terms joined by + and -, each sign taken relative to ``sign``."""
    text = ""
    for term in terms:
        negative = term.weight.sign * sign < 0
        text += (" - " if negative else " + ") if text else ("-" if negative else "")
        text += _shown_term(term, kind, env, names)
    return text


def _render(row: _Row, names: dict[str, str], fixed: bool) -> str:
    """The row as plain text; a contiguous row is shown at its single index."""
    step = "1" if fixed else "s"
    moved = step if row.direction == DIRECTION_INCREMENT else "-" + step
    lhs = _shown_function(row.kind, {row.moved: moved}, names)
    if fixed:
        (env,) = _INDEX_SETS[row.index](1)
        return f"{lhs} = {_joined(row.terms, row.kind, env, names)}"
    standalone = [t for t in row.terms if not t.indexed]
    summed = [t for t in row.terms if t.indexed]
    sign = summed[0].weight.sign
    text = f"sum_{{{row.index}}} [{_joined(summed, row.kind, None, names, sign)}]"
    if standalone:
        text = f"{_joined(standalone, row.kind, None, names)} {'-+'[sign > 0]} {text}"
    return f"{lhs} = {text}"


def _build_catalog() -> tuple[tuple[IdentityDescriptor, ...], dict[str, _Row]]:
    """Descriptors in catalog order, and the row each non-swap id evaluates.

    Every derived row is built before any descriptor, decrement twins first:
    contiguous and swap entries may name them, and may come before them in
    the table."""
    rows = {e.id: e for e in _TABLE if isinstance(e, _Row)}
    rows |= {e.id: _down(rows[e.of], e.id) for e in _TABLE if isinstance(e, _Down)}
    rows |= {e.id: rows[e.of]._replace(id=e.id, form=FORM_CONTIGUOUS)
             for e in _TABLE if isinstance(e, _Contig)}
    descriptors = []
    for entry in _TABLE:
        row = rows[entry.of if isinstance(entry, _Swap) else entry.id]
        rename = dict(entry.mapping) if isinstance(entry, _Swap) else {}
        fixed = row.form == FORM_CONTIGUOUS
        names = {n: rename.get(n, n).replace("p", "'") for n in row.kind.parameter_names}
        pairs = tuple((rename.get(a, a), rename.get(b, b)) for a, b in row.pairs)
        moved = rename.get(row.moved, row.moved)
        sign = "+" if row.direction == DIRECTION_INCREMENT else "-"
        hypotheses = [f"{names[a]}{names[b]}={names[b]}{names[a]}" for a, b in row.pairs]
        hypotheses.append(f"{names[row.moved]}{sign}kI invertible, k<={1 if fixed else 's'}")
        descriptors.append(IdentityDescriptor(
            id=entry.id, kind=row.kind, shifted_parameter=moved,
            direction=row.direction, form=row.form, commuting_pairs=pairs,
            formula=_render(row, names, fixed),
            swap_of=entry.of if rename else None,
            swap_map=entry.mapping if rename else None,
            hypotheses="; ".join(hypotheses),
        ))
    if len({d.id for d in descriptors}) != len(descriptors):
        raise RuntimeError("duplicate catalog id")
    return tuple(descriptors), rows


_CATALOG, _ROWS = _build_catalog()
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


# -- The interpreter: one path for eval_rhs and verify_identity --------------


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


def _prepare(d: IdentityDescriptor, params: ParameterSet, s: int, enforce_hypotheses: bool):
    """Check the kind, s and, when enforced, the hypotheses, then follow a
    swap: (effective shift, row to interpret, parameter set in that row's
    slots)."""
    if not check_hypotheses(d, params, s) and enforce_hypotheses:
        raise HypothesisViolated(f"hypotheses of {d.id} fail on these parameters")
    row_params = params.renamed(dict(d.swap_map)) if d.swap_map else params
    return d.effective_shift(s), _ROWS[d.swap_of or d.id], row_params


def _atoms(params: ParameterSet, plan) -> dict[tuple[str, str, int], Matrix]:
    """Every coefficient atom of the planned terms, keyed (op, name, j): one
    Pochhammer chain per parameter for the scaled (P)_j / j! and j! (P)_j^-1,
    read with ``PochhammerChain.at`` (which raises SingularShift for a
    singular P + kI with k < j), one stacked inverse for all
    (P - jI)^-1 of a parameter, SingularMatrix if one is singular."""
    wanted: dict[tuple[str, str], set[int]] = {}
    for term, env in plan:
        for f in term.factors:
            if isinstance(f, _Atom):
                wanted.setdefault((f.op, f.name), set()).add(_at(f.index, env))
    atoms = {}
    for (op, name), js in wanted.items():
        base, js = params[name], sorted(js)
        if op == "P":
            lookup = [base].__getitem__
        elif op in ("poch", "poch_inv"):
            build = PochhammerChain.for_products if op == "poch" else PochhammerChain.for_inverses
            lookup = build(base).at
        else:
            inverses, reach = linalg.shift_inverses(base, -np.array(js))
            if reach < len(js):
                raise SingularMatrix(f"{name} - {js[reach]}I is singular to working precision")
            lookup = dict(zip(js, inverses)).__getitem__
        atoms.update({(op, name, j): lookup(j) for j in js})
    return atoms


def _scalar(term: _Term, s: int, env: dict[str, int], point: EvalPoint):
    """The term's number: its sign, times s! / (prod k_v! (s - sum k_v)!) over
    the weight's coefficient variables (1, C(s,k) or M(s,k1,k2)), times j! for
    each (P)_j and over j! for each (P)_j^-1, which turns the scaled atoms
    back into the unscaled factors, times the powers of x and y. The factorial
    part is one exact integer quotient that rounds once; past the double
    range it raises Overflow."""
    w, ks = term.weight, [env[v] for v in term.weight.coefficient]
    atoms = [f for f in term.factors if isinstance(f, _Atom)]
    above = [s] + [_at(f.index, env) for f in atoms if f.op == "poch"]
    below = [s - sum(ks), *ks] + [_at(f.index, env) for f in atoms if f.op == "poch_inv"]
    try:
        value = math.prod(map(math.factorial, above)) / math.prod(map(math.factorial, below))
    except OverflowError:
        raise Overflow(f"term weight past the double range at s = {s}, {env}") from None
    for variable, power in ((point.x, w.x), (point.y, w.y)):
        if power is not None:
            value = value * (-variable if w.negated else variable) ** _at(power, env)
    return w.sign * value


def _rhs(
    row: _Row,
    params: ParameterSet,
    s: int,
    point: EvalPoint,
    cfg: SeriesConfig,
    lhs: ParameterSet | None = None,
):
    """The row's right-hand side at shift count s, its deepest inner degree and
    the report of ``lhs`` (None without one): each term's weight times its
    factors multiplied left to right, the inner slot evaluated once per index
    value. The left-hand side, if given, and every inner slot are summed as
    one batch. A failure is raised in the order of evaluating them one by
    one: the left-hand side, then the coefficients, then the plan in order."""
    envs = _INDEX_SETS[row.index](s)
    plan = [(t, env) for t in row.terms for env in (envs if t.indexed else [{}])]
    inner = [params.moved({n: _at(j, env) for n, j in t.slot.items()}) for t, env in plan]
    outcomes = evaluate_many(([] if lhs is None else [lhs]) + inner, point, cfg)
    lhs_report = None if lhs is None else _member_report(outcomes.pop(0))
    atoms = _atoms(params, plan)
    total, degrees = linalg.zeros(params.order), 0
    for (term, env), outcome in zip(plan, outcomes):
        report = _member_report(outcome)
        degrees = max(degrees, report.degrees_used)
        factors = [
            report.value if isinstance(f, dict) else atoms[f.op, f.name, _at(f.index, env)]
            for f in term.factors
        ]
        product = functools.reduce(operator.matmul, factors)
        total = total + _scalar(term, s, env, point) * product
    return total, degrees, lhs_report


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
    s_eff, row, row_params = _prepare(d, params, s, enforce_hypotheses)
    return _rhs(row, row_params, s_eff, point, cfg)[0]


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
    """Compare the directly evaluated shifted function against the RHS.

    Evaluator failures (singular shifts, non-convergence, violated
    hypotheses) become a failed report with the cause, so campaigns keep
    running; a negative s is bad input and raises ValueError as in eval_rhs,
    and so do a seed that is not an int or a numpy integer (a bool among
    them) and a campaign_tol that is not positive and finite, as in
    run_campaign. The report holds the seed as the Python int it is.
    """
    if not linalg.is_count(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    _check_campaign_tol(campaign_tol)
    report = VerificationReport(
        identity_id=d.id, s=d.effective_shift(s), seed=int(seed), order=params.order
    )
    try:
        s_eff, row, row_params = _prepare(d, params, s, enforce_hypotheses)
        delta = s_eff if row.direction == DIRECTION_INCREMENT else -s_eff
        lhs = row_params.moved({row.moved: delta})
        rhs_value, report.rhs_degrees, lhs_report = _rhs(
            row, row_params, s_eff, point, cfg, lhs
        )
        lhs_value = lhs_report.value
        report.lhs_report = lhs_report
        report.residual = linalg.frobenius_norm(lhs_value - rhs_value) / (
            1.0 + linalg.frobenius_norm(lhs_value)
        )
        report.passed = report.residual <= campaign_tol
    except HypermatError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    return report


def _check_campaign_tol(campaign_tol: float) -> None:
    if not 0.0 < campaign_tol < math.inf:
        raise ValueError(f"campaign_tol must be positive and finite, got {campaign_tol}")


def _derive_seed(seed: int, identity_id: str, trial: int) -> int:
    tag = zlib.crc32(identity_id.encode("utf-8"))
    return (seed * 2654435761 + tag * 40503 + trial * 69069 + 1) % (2**63)


def draw_point(kind: FunctionKind, rng: random.Random) -> EvalPoint:
    """A point comfortably inside the kind's convergence region.

    Margins bound the degree, and so the cost, at which both sides of every
    identity converge: |x|, |y| <= 0.3 generally, |x| + |y| <= 0.5 for F2,
    and sqrt|x| + sqrt|y| <= 0.7 for F4. The factorial-scaled chains do not
    overflow anywhere inside a region.
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
    """A commuting family whose spectra satisfy the identity's hypotheses,
    in Schur form.

    Decrement and c-shift identities must invert the moved parameter minus
    kI for k up to s, so its sampled eigenvalues are redrawn until they keep
    a clearance of 0.1 from the integers 0..s. The accepted family's
    transform P = QR is then replaced by its triangular factor R, so each
    member R diag(spectrum) R^{-1} = Q^* (P diag(spectrum) P^{-1}) Q is
    upper triangular with the spectrum on its diagonal: the same family up
    to a unitary change of basis, with the same spectra and cond(R) =
    cond(P), but without the rounding of a dense non-normal basis. Every
    catalogued identity is similarity-covariant, so it checks the same
    thing on either form.
    """
    names = d.kind.parameter_names
    needs_clearance = d.direction == DIRECTION_DECREMENT
    for _ in range(100):
        family = random_commuting_family(order, names, rng.randrange(2**31))
        if not needs_clearance or all(
            abs(z - k) >= _SHIFT_CLEARANCE
            for z in family.spectra[d.shifted_parameter]
            for k in range(0, s_eff + 1)
        ):
            upper = np.linalg.qr(family.transform, mode="r")
            return CommutingFamily(order, upper, linalg.inverse(upper), family.spectra)
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
    in-region point, and verifies. A repeated id is verified once, at its
    first mention. Failures become failed reports, never exceptions; ids
    that are not in the catalog raise one UnknownIdentity naming them all,
    and bad arguments (trials, an order or a shift that is not an int or a
    numpy integer of at least 1, a bool among them, a seed that is not an
    int or a numpy integer, empty pools, a campaign_tol that is not
    positive and finite) raise ValueError. Numpy integers are read as the
    Python ints they hold, so the reports hold Python ints throughout.
    """
    if ids is None:
        descriptors = list(catalog())
    else:
        ids = list(dict.fromkeys(ids))
        unknown = [identity_id for identity_id in ids if identity_id not in _BY_ID]
        if unknown:
            raise UnknownIdentity(
                f"unknown ids: {', '.join(unknown)}; valid ids: " + ", ".join(sorted(_BY_ID))
            )
        descriptors = [_BY_ID[identity_id] for identity_id in ids]
    if not linalg.is_count(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not orders or not s_values:
        raise ValueError("orders and s_values must be non-empty")
    for name, pool in (("orders", orders), ("shifts", s_values)):
        if not all(map(linalg.is_count, pool)) or min(pool) < 1:
            raise ValueError(f"{name} must be positive integers, got {list(pool)}")
    if not linalg.is_count(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    orders, s_values, seed = [int(o) for o in orders], [int(v) for v in s_values], int(seed)
    _check_campaign_tol(campaign_tol)
    reports = []
    for d in descriptors:
        for trial in range(trials):
            trial_seed = _derive_seed(seed, d.id, trial)
            rng = random.Random(trial_seed)
            order = rng.choice(orders)
            s = rng.choice(s_values)
            s_eff = d.effective_shift(s)
            try:
                family = draw_family(d, order, s_eff, rng)
            except GenerationFailed as exc:
                reports.append(
                    VerificationReport(
                        identity_id=d.id, s=s_eff, seed=trial_seed, order=order,
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
